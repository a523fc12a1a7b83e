#!/usr/bin/env bash
# Restart-recovery smoke: proves the crash-safe persistence loop on the
# real ttserver binary, end to end.
#
#   1. Boot ttserver with -drift and a -state-dir that does not exist
#      yet (it must create it), serve live traffic.
#   2. SIGTERM: graceful shutdown must drain and write a state snapshot.
#   3. Reboot: the node must restore from the snapshot — zero
#      re-profiling — and keep serving the same tiers.
#   4. kill -9 the serving node mid-traffic: the atomically-written
#      snapshot must survive the crash uncorrupted.
#   5. Reboot again: restore still succeeds and dispatch still answers.
#
# The healed-table restore after kill -9 mid-heal is pinned in-process
# by TestEndToEndRestartRecovery (chaos backends force a real canary
# promotion there); this smoke covers the binary-level plumbing CI can
# actually drive: flags, signal handling, snapshot atomicity, boot-time
# restore.
#
#   ./scripts/restart_smoke.sh [addr]
#
# addr defaults to 127.0.0.1:18080.
set -euo pipefail

ADDR="${1:-127.0.0.1:18080}"
BASE="http://$ADDR"

cd "$(dirname "$0")/.."

BIN="$(mktemp -d)/ttserver"
STATE_ROOT="$(mktemp -d /tmp/ttstate.XXXXXX)"
# A directory that does not exist yet: ttserver must create it at boot.
STATE_DIR="$STATE_ROOT/state"
LOG="$(mktemp /tmp/ttserver_smoke.XXXXXX.log)"
SRV_PID=""
cleanup() {
    [[ -n "$SRV_PID" ]] && kill -9 "$SRV_PID" 2>/dev/null || true
    rm -rf "$(dirname "$BIN")" "$STATE_ROOT" "$LOG"
}
trap cleanup EXIT

fail() {
    echo "restart_smoke: FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$LOG" >&2
    exit 1
}

start_server() {
    : > "$LOG"
    "$BIN" -service vision -corpus 300 -addr "$ADDR" \
        -drift -drift-interval 100ms -state-dir "$STATE_DIR" >"$LOG" 2>&1 &
    SRV_PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/tiers" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$SRV_PID" 2>/dev/null || fail "server died during boot"
        sleep 0.2
    done
    fail "server never became ready on $BASE"
}

drive_load() {
    for id in 1 2 3 4 5 6 7 8; do
        curl -fsS -X POST "$BASE/compute" \
            --header 'Tolerance: 0.05' --header 'Objective: response-time' \
            --data "{\"request_id\": $id}" >/dev/null || fail "dispatch of request $id failed"
    done
}

echo "restart_smoke: building ttserver ..."
go build -o "$BIN" ./cmd/ttserver

echo "restart_smoke: [1/5] cold boot (creates the state dir, profiles from scratch) + live traffic"
start_server
[[ -d "$STATE_DIR" ]] || fail "boot did not create the state dir $STATE_DIR"
grep -q "no state snapshot" "$LOG" || fail "cold boot should report the missing snapshot"
drive_load

echo "restart_smoke: [2/5] SIGTERM -> graceful drain + snapshot"
kill -TERM "$SRV_PID"
for _ in $(seq 1 100); do
    kill -0 "$SRV_PID" 2>/dev/null || break
    sleep 0.2
done
kill -0 "$SRV_PID" 2>/dev/null && fail "server ignored SIGTERM"
SRV_PID=""
grep -q "shutdown complete" "$LOG" || fail "graceful shutdown did not complete"
SNAP="$STATE_DIR"/toltiers-state.bin
[[ -s "$SNAP" ]] || fail "no state snapshot at $SNAP after graceful shutdown"
ls "$STATE_DIR" | grep -qv '^toltiers-state\.bin$' && fail "temp files leaked in $STATE_DIR"

echo "restart_smoke: [3/5] warm boot restores the snapshot, zero re-profiling"
start_server
grep -q "restored state snapshot" "$LOG" || fail "warm boot did not restore the snapshot"
grep -q "profiling .* requests" "$LOG" && fail "warm boot re-profiled despite a valid snapshot"
curl -fsS "$BASE/drift" >/dev/null || fail "GET /drift unavailable after restore"
drive_load

echo "restart_smoke: [4/5] kill -9 mid-traffic; snapshot must survive"
# Best-effort traffic: requests racing the kill are expected to drop.
for id in 1 2 3 4 5 6 7 8; do
    curl -fsS -m 2 -X POST "$BASE/compute" \
        --header 'Tolerance: 0.05' --header 'Objective: response-time' \
        --data "{\"request_id\": $id}" >/dev/null 2>&1 || true
done &
LOAD_PID=$!
kill -9 "$SRV_PID"
SRV_PID=""
wait "$LOAD_PID" 2>/dev/null || true
[[ -s "$SNAP" ]] || fail "snapshot vanished after kill -9"

echo "restart_smoke: [5/5] post-crash boot restores and serves"
start_server
grep -q "restored state snapshot" "$LOG" || fail "post-crash boot did not restore the snapshot"
grep -q "profiling .* requests" "$LOG" && fail "post-crash boot re-profiled despite the surviving snapshot"
drive_load
kill -TERM "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

echo "restart_smoke: ok — snapshot written on shutdown, restored on boot, survived kill -9"
