#!/usr/bin/env bash
# Multi-node fleet smoke: proves the serving fleet on the real
# binaries, end to end.
#
#   0. ttserver -fleet without -state-dir must refuse to start (exit 2):
#      such a front tier would restart at table v0 under its workers.
#   1. Boot ttserver -fleet (the front tier) and three ttserver -join
#      workers: each pulls the profile matrix + rule tables over
#      GET /fleet/snapshot and registers for dispatch traffic.
#   2. Drive closed-loop load through the front tier with ttload
#      -assert, and kill -9 one worker mid-run: the router must fail
#      the in-flight requests over to siblings — ttload's ledger
#      (sent = graded + failed + shed, zero hard failures) is the
#      zero-lost proof.
#   3. Regenerate rules with apply: the promotion moves the front tier's
#      version fence, and the fleet has converged when every surviving
#      worker reports that version in GET /fleet (each pulls the
#      snapshot on its next heartbeat). The smoke prints the time from
#      the fence moving to the last worker reporting it.
#   4. kill -9 the front tier (it runs with -state-dir) once the fleet
#      has converged and restart it: it must come back at the fence its
#      workers serve, both workers must rejoin without a failed resync,
#      and a second promotion must converge at the next version.
#
# The same guarantees are pinned in-process (and under -race) by the
# internal/fleet unit tests and internal/server fleet e2e tests; this
# smoke covers the binary-level plumbing CI can actually drive: flags,
# worker bootstrap over HTTP, heartbeats, SIGKILL failover, pull
# convergence.
#
#   ./scripts/fleet_smoke.sh [addr]
#
# addr defaults to 127.0.0.1:18090; workers bind the three next ports.
set -euo pipefail

ADDR="${1:-127.0.0.1:18090}"
BASE="http://$ADDR"
HOST="${ADDR%:*}"
PORT="${ADDR##*:}"

cd "$(dirname "$0")/.."

BIN_DIR="$(mktemp -d)"
LOG_DIR="$(mktemp -d /tmp/ttfleet.XXXXXX)"
SRV_PID=""
WORKER_PIDS=()
cleanup() {
    [[ -n "$SRV_PID" ]] && kill -9 "$SRV_PID" 2>/dev/null || true
    for pid in "${WORKER_PIDS[@]:-}"; do
        [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$BIN_DIR" "$LOG_DIR"
}
trap cleanup EXIT

fail() {
    echo "fleet_smoke: FAIL: $*" >&2
    for log in "$LOG_DIR"/*.log; do
        echo "--- $(basename "$log") ---" >&2
        cat "$log" >&2
    done
    exit 1
}

live_workers() {
    curl -fsS "$BASE/fleet" 2>/dev/null | grep -o '"base_url"' | wc -l
}

wait_workers() {
    local want=$1
    for _ in $(seq 1 100); do
        [[ "$(live_workers)" -eq "$want" ]] && return 0
        sleep 0.2
    done
    fail "fleet never settled at $want workers (have $(live_workers)): $(curl -fsS "$BASE/fleet" || true)"
}

echo "fleet_smoke: building ttserver, ttload ..."
go build -o "$BIN_DIR/ttserver" ./cmd/ttserver
go build -o "$BIN_DIR/ttload" ./cmd/ttload

# start_front boots the front tier, logging to $LOG_DIR/$1.log.
start_front() {
    "$BIN_DIR/ttserver" -service vision -corpus 300 -addr "$ADDR" -fleet \
        -state-dir "$LOG_DIR/state" >"$LOG_DIR/$1.log" 2>&1 &
    SRV_PID=$!
    for _ in $(seq 1 100); do
        curl -fsS "$BASE/tiers" >/dev/null 2>&1 && return 0
        kill -0 "$SRV_PID" 2>/dev/null || fail "front tier died during boot"
        sleep 0.2
    done
    fail "front tier never became ready on $BASE"
}

# fence prints the front tier's fenced table version: the first
# table_version in GET /fleet (the workers' own follow it).
fence() {
    grep -o '"table_version":[0-9]*' <<<"$1" | head -1 | grep -o '[0-9]*$'
}

# converged succeeds when GET /fleet ($1) lists exactly $2 workers and
# every one reports the fence.
converged() {
    local fv reports
    fv="$(fence "$1")"
    reports="$(grep -o '"table_version":[0-9]*' <<<"$1" | tail -n +2 | grep -o '[0-9]*$')"
    [[ "$(grep -c . <<<"$reports")" -eq "$2" ]] || return 1
    ! grep -qvx "$fv" <<<"$reports"
}

now_ms() { echo $(($(date +%s%N) / 1000000)); }

# promote applies a regenerated table, waits for the fence to move past
# its current value, then waits until both surviving workers report the
# new fence, leaving GET /fleet in $FLEET, the fence in $VER and the
# promotion-to-converged time in $CONVERGE_MS.
promote() {
    local before start
    before="$(fence "$(curl -fsS "$BASE/fleet")")"
    curl -fsS -X POST "$BASE/rules/generate" \
        --data '{"apply": true, "objectives": ["response-time"], "min_trials": 5, "max_trials": 24, "threshold_points": 4}' \
        >/dev/null || fail "rules job refused"
    for _ in $(seq 1 1500); do
        FLEET="$(curl -fsS "$BASE/fleet")"
        [[ "$(fence "$FLEET")" -gt "$before" ]] && break
        STATUS="$(curl -fsS "$BASE/rules/status")"
        grep -qE '"state":"(failed|cancelled)"' <<<"$STATUS" && fail "rules job did not apply: $STATUS"
        sleep 0.02
    done
    start="$(now_ms)"
    VER="$(fence "$FLEET")"
    [[ "$VER" -gt "$before" ]] || fail "the fence never moved past v$before: $(curl -fsS "$BASE/rules/status")"

    for _ in $(seq 1 1000); do
        FLEET="$(curl -fsS "$BASE/fleet")"
        converged "$FLEET" 2 && break
        sleep 0.02
    done
    converged "$FLEET" 2 || fail "the 2 survivors never both reported v$VER: $FLEET"
    CONVERGE_MS=$(($(now_ms) - start))
    [[ "$(fence "$FLEET")" -eq "$VER" ]] || fail "the fence moved again during convergence: $FLEET"
    echo "fleet_smoke: promotion to v$VER converged on 2 workers in ${CONVERGE_MS} ms (heartbeat 250ms)"
}

echo "fleet_smoke: [0/4] a front tier without -state-dir is refused"
CODE=0
"$BIN_DIR/ttserver" -service vision -corpus 300 -addr "$ADDR" -fleet \
    >"$LOG_DIR/no-state-dir.log" 2>&1 || CODE=$?
[[ "$CODE" -eq 2 ]] || fail "ttserver -fleet without -state-dir exited $CODE, want 2"
grep -q -- "-fleet needs -state-dir" "$LOG_DIR/no-state-dir.log" \
    || fail "ttserver -fleet without -state-dir gave no reason"

echo "fleet_smoke: [1/4] boot the front tier + 3 workers"
start_front front

for i in 1 2 3; do
    "$BIN_DIR/ttserver" -join "$BASE" -name "worker-$i" \
        -addr "$HOST:$((PORT + i))" -heartbeat 250ms \
        >"$LOG_DIR/worker-$i.log" 2>&1 &
    WORKER_PIDS[i]=$!
    disown "${WORKER_PIDS[i]}" # silence job-control noise when kill -9'd
done
wait_workers 3

echo "fleet_smoke: [2/4] ttload -assert through the front tier, kill -9 one worker mid-run"
"$BIN_DIR/ttload" -target "$BASE" -assert \
    -duration 4s -rps 400 -concurrency 16 \
    >"$LOG_DIR/ttload.log" 2>&1 &
LOAD_PID=$!
sleep 1
kill -0 "$LOAD_PID" 2>/dev/null || fail "ttload exited before the worker was killed"
kill -9 "${WORKER_PIDS[2]}"
WORKER_PIDS[2]=""
wait "$LOAD_PID" || fail "ttload lost requests across the worker crash (sent != graded + failed + shed, or hard failures)"
grep -q "assert: accounting reconciles" "$LOG_DIR/ttload.log" \
    || fail "ttload never ran the assertion"
# The killed worker stops heartbeating; its lease must lapse before the
# promotion so the converged set is deterministic.
wait_workers 2

echo "fleet_smoke: [3/4] promotion converges: every survivor reports the fence"
promote
[[ "$VER" -ge 1 ]] || fail "front tier fence never advanced: $FLEET"
FIRST_VER="$VER"

echo "fleet_smoke: [4/4] kill -9 the front tier, restart it from its snapshot, promote again"
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
start_front front-restarted
grep -q "restored state snapshot" "$LOG_DIR/front-restarted.log" \
    || fail "restarted front tier did not restore its snapshot"
RESTORED="$(curl -fsS "$BASE/fleet" | grep -o '"table_version":[0-9]*' | head -1 | grep -o '[0-9]*$')"
[[ "$RESTORED" -eq "$FIRST_VER" ]] \
    || fail "restarted front tier is at v$RESTORED, its workers at v$FIRST_VER"
wait_workers 2
grep -l "resync failed" "$LOG_DIR"/worker-*.log && fail "a worker failed to resync with the restarted front tier"
promote
[[ "$VER" -eq $((FIRST_VER + 1)) ]] || fail "second promotion fenced v$VER, want v$((FIRST_VER + 1))"

kill -TERM "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

echo "fleet_smoke: ok — 3 workers joined, SIGKILL failover lost nothing, promotions converged by pull at v$FIRST_VER and, after a front-tier kill -9, at v$VER"
