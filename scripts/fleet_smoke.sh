#!/usr/bin/env bash
# Multi-node fleet smoke: proves the serving fleet on the real
# binaries, end to end.
#
#   1. Boot ttserver -fleet (the front tier) and three ttworkers that
#      join it: each pulls the profile matrix + rule tables over
#      GET /fleet/snapshot and registers for dispatch traffic.
#   2. Drive closed-loop load through the front tier with ttload
#      -assert, and kill -9 one worker mid-run: the router must fail
#      the in-flight requests over to siblings — ttload's ledger
#      (sent = graded + failed + shed, zero hard failures) is the
#      zero-lost proof.
#   3. Regenerate rules with apply: the promotion must roll the new
#      table version across the surviving workers one at a time behind
#      the version fence, evicting nobody.
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

echo "fleet_smoke: building ttserver, ttworker, ttload ..."
go build -o "$BIN_DIR/ttserver" ./cmd/ttserver
go build -o "$BIN_DIR/ttworker" ./cmd/ttworker
go build -o "$BIN_DIR/ttload" ./cmd/ttload

echo "fleet_smoke: [1/3] boot the front tier + 3 workers"
"$BIN_DIR/ttserver" -service vision -corpus 300 -addr "$ADDR" -fleet \
    >"$LOG_DIR/front.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 100); do
    curl -fsS "$BASE/tiers" >/dev/null 2>&1 && break
    kill -0 "$SRV_PID" 2>/dev/null || fail "front tier died during boot"
    sleep 0.2
done
curl -fsS "$BASE/tiers" >/dev/null 2>&1 || fail "front tier never became ready on $BASE"

for i in 1 2 3; do
    "$BIN_DIR/ttworker" -join "$BASE" -name "worker-$i" \
        -addr "$HOST:$((PORT + i))" -heartbeat 250ms \
        >"$LOG_DIR/worker-$i.log" 2>&1 &
    WORKER_PIDS[i]=$!
    disown "${WORKER_PIDS[i]}" # silence job-control noise when kill -9'd
done
wait_workers 3

echo "fleet_smoke: [2/3] ttload -assert through the front tier, kill -9 one worker mid-run"
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

echo "fleet_smoke: [3/3] promotion rolls the table fence across the survivors"
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
[[ "$VER" -ge 1 ]] || fail "front tier fence never advanced: $FLEET"
# Every surviving worker must serve the fenced version.
grep -o '"table_version":[0-9]*' <<<"$FLEET" | grep -o '[0-9]*$' | while read -r v; do
    [[ "$v" -eq "$VER" ]] || fail "mixed table versions after rollout: $FLEET"
done

kill -TERM "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

echo "fleet_smoke: ok — 3 workers joined, SIGKILL failover lost nothing, rolling push converged at v$VER with zero evictions"
