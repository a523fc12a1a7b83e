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
#   3. Regenerate rules with apply: the promotion must roll the new
#      table version across the surviving workers one at a time behind
#      the version fence, evicting nobody.
#   4. kill -9 the front tier (it runs with -state-dir) once the rollout
#      has converged and restart it: it must come back at the fence its
#      workers serve, both workers must rejoin without a failed resync,
#      and a second promotion must converge at the next version with
#      zero evictions.
#
# The same guarantees are pinned in-process (and under -race) by the
# internal/fleet unit tests and internal/server fleet e2e tests; this
# smoke covers the binary-level plumbing CI can actually drive: flags,
# worker bootstrap over HTTP, heartbeats, SIGKILL failover, the rolling
# push.
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

# promote applies a regenerated table and waits until its rollout has
# converged on every live worker, leaving GET /fleet in $FLEET and the
# front tier's fence in $VER.
promote() {
    curl -fsS -X POST "$BASE/rules/generate" \
        --data '{"apply": true, "objectives": ["response-time"], "min_trials": 5, "max_trials": 24, "threshold_points": 4}' \
        >/dev/null || fail "rules job refused"
    for _ in $(seq 1 150); do
        STATUS="$(curl -fsS "$BASE/rules/status")"
        grep -q '"state":"done"' <<<"$STATUS" && break
        grep -qE '"state":"(failed|cancelled)"' <<<"$STATUS" && fail "rules job did not apply: $STATUS"
        sleep 0.2
    done
    grep -q '"state":"done"' <<<"$STATUS" || fail "rules job never finished: $STATUS"

    for _ in $(seq 1 100); do
        FLEET="$(curl -fsS "$BASE/fleet")"
        grep -q '"done":true' <<<"$FLEET" && break
        sleep 0.2
    done
    grep -q '"done":true' <<<"$FLEET" || fail "rollout never converged: $FLEET"
    grep -q '"evicted"' <<<"$FLEET" && fail "clean rolling push evicted a healthy worker: $FLEET"
    PUSHED="$(grep -o '"pushed":\[[^]]*\]' <<<"$FLEET" | grep -o '"worker-[0-9]*"' | wc -l)"
    [[ "$PUSHED" -eq 2 ]] || fail "rollout pushed $PUSHED workers, want the 2 survivors: $FLEET"
    VER="$(grep -o '"table_version":[0-9]*' <<<"$FLEET" | head -1 | grep -o '[0-9]*$')"
    # Every surviving worker must serve the fenced version.
    grep -o '"table_version":[0-9]*' <<<"$FLEET" | grep -o '[0-9]*$' | while read -r v; do
        [[ "$v" -eq "$VER" ]] || fail "mixed table versions after rollout: $FLEET"
    done
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
# rollout so the push set is deterministic.
wait_workers 2

echo "fleet_smoke: [3/4] promotion rolls the table fence across the survivors"
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

echo "fleet_smoke: ok — 3 workers joined, SIGKILL failover lost nothing, rolling pushes converged at v$FIRST_VER and, after a front-tier kill -9, at v$VER with zero evictions"
