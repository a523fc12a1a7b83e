#!/usr/bin/env bash
# CI benchmark gate: reruns the hot-path benchmarks through
# scripts/bench.sh (3 repetitions) and checks the fresh sweep. Fails
# (exit 1) when a same-sweep ratio gate trips, a pinned allocs/op count
# exceeds the committed BENCH.json, or a hot-path benchmark BENCH.json
# records is missing from the sweep.
#
#   ./scripts/bench_check.sh [fresh-out.json]
#
# No ns/op is compared with BENCH.json. An absolute time does not repeat
# across hosts, nor on one shared host from one hour to the next, so a
# threshold on it fails unchanged code as readily as a regression; for
# ns/op, BENCH.json is a record. What repeats is gated:
#
# - ratios of two arms of the same sweep, where host speed cancels: the
#   flight recorder's dispatch overhead (BenchmarkDispatch/serial-traced
#   within TRACE_OVERHEAD_PCT of /serial), canary-split dispatch
#   (BenchmarkCanaryDispatch/split within CANARY_OVERHEAD_PCT of /off),
#   and the coalescer with a crowd (128 callers against MaxBatch 64:
#   coalesced at most 0.75x serial, batching keeps paying), below one
#   (8 callers: at most 1.5x serial, a pass-through, not a timer wait)
#   and in the embedded shape (embedded-c64 at most 0.80x serial-c128,
#   a released lease runs its next flush at once), the fused bootstrap
#   trial (BenchmarkEvaluatorTrialDrawn/kernel at most 0.65x
#   /reference), and one item of a 64-item batch answer against a
#   single answer (BenchmarkHandleDispatch/batch64 / 64 at most
#   BATCH_ITEM_CAP_PCT of /bare);
# - allocs/op, a count that is the same on every host: the HTTP
#   handler's (BenchmarkHandleDispatch/*), the fleet hop's
#   (BenchmarkFleetProxy, front tier plus one worker) and a fleet
#   worker's snapshot read (BenchmarkSnapshotCodec/read) may not exceed
#   BENCH.json. The zero-allocation paths (dispatch, drift observe,
#   admit, trace observe) are pinned by AllocsPerRun tests in their
#   packages;
# - presence: a hot-path benchmark BENCH.json records that the sweep no
#   longer produces fails the gate, or losing it would silently lose its
#   protection.
#
# When fresh-out.json is given, the fresh run's JSON is kept there (CI
# uploads it as the new record instead of paying for a second sweep).
set -euo pipefail

KEEP="${1:-}"

cd "$(dirname "$0")/.."

BASELINE="BENCH.json"
if [[ ! -f "$BASELINE" ]]; then
    echo "bench_check: no $BASELINE baseline committed" >&2
    exit 1
fi

if [[ -n "$KEEP" ]]; then
    FRESH="$KEEP"
else
    FRESH="$(mktemp /tmp/bench_check.XXXXXX.json)"
    trap 'rm -f "$FRESH"' EXIT
fi

./scripts/bench.sh 3 "$FRESH" >/dev/null

# Pull "name": {"ns_per_op": X, ...} pairs out of a bench.sh JSON.
extract() {
    sed -n 's/^[[:space:]]*"\([^"]*\)": {"ns_per_op": \([0-9.]*\).*/\1 \2/p' "$1"
}

extract "$BASELINE" > /tmp/bench_base.$$
extract "$FRESH" > /tmp/bench_fresh.$$

status=0
echo "bench_check: same-sweep ratio gates, alloc pins against $BASELINE"

# Same-sweep ratio gates: host speed cancels in a ratio of two arms of
# one sweep. ratio_gate fails when arm's ns/op, divided by div (default
# 1), exceeds cap_pct percent of base's; both are full benchmark names,
# and the label shows their last parts. A cap written "+N" is an
# overhead allowance, N percent over base, and prints as one ("+16.3%
# recorder overhead, cap +35%").
ratio_gate() {
    local label="$1" arm="$2" base="$3" cap_pct="$4" what="$5" div="${6:-1}"
    local base_ns arm_ns verdict note pair="${arm##*/}/${base##*/}"
    base_ns="$(awk -v n="$base" '$1 == n {print $2}' /tmp/bench_fresh.$$)"
    arm_ns="$(awk -v n="$arm" '$1 == n {print $2}' /tmp/bench_fresh.$$)"
    if [[ -z "$base_ns" || -z "$arm_ns" ]]; then
        if [[ "$label" == trial-kernel && "$NO_AVX2" == 1 ]]; then
            echo "  SKIP  $label gate: $arm / $base pair absent from fresh run (no AVX2)"
            return
        fi
        echo "  MISS  $label gate: $arm / $base pair absent from fresh run"
        status=1
        return
    fi
    if [[ "$div" != 1 ]]; then
        pair="${arm##*/}/$div / ${base##*/}"
    fi
    verdict="$(awk -v s="$base_ns" -v c="$arm_ns" -v d="$div" -v p="$cap_pct" \
        'BEGIN { print (c / d > s * (p ~ /^\+/ ? 1 + p / 100 : p / 100)) ? "FAIL" : "ok" }')"
    note="$(awk -v s="$base_ns" -v c="$arm_ns" -v d="$div" -v p="$cap_pct" -v w="$what" -v b="${base##*/}" 'BEGIN {
        r = c / d / s
        if (p ~ /^\+/) printf "%+.1f%% %s, cap %s%%", (r - 1) * 100, w, p
        else if (d != 1) printf "%.2fx %s %s, cap %.2fx", r, b, w, p / 100
        else printf "%.2fx %s, cap %.2fx: %s", r, b, p / 100, w
    }')"
    printf '  %-5s %-40s %12.1f vs %12.1f ns/op (%s)\n' \
        "$verdict" "$label($pair)" "$base_ns" "$arm_ns" "$note"
    if [[ "$verdict" == "FAIL" ]]; then
        status=1
    fi
}
# The fused trial kernel needs AVX2: on a host without it the sweep
# skips BenchmarkEvaluatorTrialDrawn/kernel, and its gate and presence
# check print SKIP instead of failing.
NO_AVX2=0
if ! grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    NO_AVX2=1
fi

# The flight recorder's dispatch overhead: the traced serial dispatch
# must stay within TRACE_OVERHEAD_PCT of the untraced one. The measured
# floor on the two-leg concurrent replay policy is ~16-18% (one counter
# RMW, two leg captures, span reset + finish per ~300ns dispatch — see
# PERFORMANCE.md); 35% is what shared CI runners need on top of that
# floor, and one cap serves every host.
TRACE_OVERHEAD_PCT=35
ratio_gate recorder-overhead BenchmarkDispatch/serial-traced BenchmarkDispatch/serial \
    "+$TRACE_OVERHEAD_PCT" "recorder overhead"
# Dispatch with a live canary trial splitting traffic (tenant hash +
# ticket routing to the canary arm) must stay within
# CANARY_OVERHEAD_PCT of the untracked path. Measured floor is ~8-9%
# (one hash + modulo per ticket, canary observer indirection — see
# PERFORMANCE.md); 20% is what shared CI runners need on top of that
# floor, and one cap serves every host.
CANARY_OVERHEAD_PCT=20
ratio_gate canary-overhead BenchmarkCanaryDispatch/split BenchmarkCanaryDispatch/off \
    "+$CANARY_OVERHEAD_PCT" "canary-split overhead"

# With a crowd (128 callers, MaxBatch 64) windows fill and one flush
# amortizes admission and the per-leg lease over 64 requests: measured
# 0.47-0.61x serial, so 0.75x holds "coalesced is worth having" with
# room for noise. Below the crowd (8 callers) no window can fill and the
# coalescer must be a pass-through: measured 1.20x (about half the
# coalescer's own gauge, mutex and counters on a contended microsecond,
# half the gate seam's AdmitBatch and Release closure), single runs of
# either arm scattering 5-7 %. The cap is the pin against ever parking a
# sub-crowd request on the timer again, which reads 100x and more, so
# 1.5x holds it on a quiet box and a shared CI runner alike.
ratio_gate coalesce-crowd BenchmarkCoalescedDispatch/coalesced-c128 BenchmarkCoalescedDispatch/serial-c128 75 "batching pays"
ratio_gate coalesce-subcrowd BenchmarkCoalescedDispatch/coalesced-c8 BenchmarkCoalescedDispatch/serial-c8 150 "pass-through"
# The embedded shape (64 callers, MaxBatch 8, two tiers sharing both
# legs under a cap of 1) hands the lease from flush to flush. Before a
# release yielded to the flush it woke, 13 sweeps on a 2-vCPU host read
# 0.67-0.93x serial-c128 (ten of them above 0.78); after, 0.65-0.76x.
# The cap sits between: a lease left idle behind its releaser's
# deliveries trips it on most sweeps.
ratio_gate lease-handoff BenchmarkCoalescedDispatch/embedded-c64 BenchmarkCoalescedDispatch/serial-c128 80 "lease hand-off"
# The fused AVX2 trial (xrand.SumRows8: draw and row sum in one pass)
# against the FillIntn + Trial path every other host runs, one
# 200-of-2 000-row bootstrap trial each. Four sweeps on a 2-vCPU host
# read 0.37-0.45x; a kernel that stops overlapping the draw with the
# add chain reads near 1x, so 0.65x trips on it and not on noise.
# BenchmarkRuleGenerator cannot see the kernel (its time is the column
# gather and SetPolicy), so this ratio is the kernel's only gate.
ratio_gate trial-kernel BenchmarkEvaluatorTrialDrawn/kernel BenchmarkEvaluatorTrialDrawn/reference 65 "fused draw and sum"

# One item of a 64-item POST /dispatch/batch
# (BenchmarkHandleDispatch/batch64 ns/op / 64) may cost at most
# BATCH_ITEM_CAP_PCT percent of a bare POST /dispatch. Before the batch
# renderer wrote the tier segment once per batch and short decimals
# without Ryu, six 3-repetition sweeps on a 2-vCPU host read 0.29-0.36;
# after, 0.23-0.27 (PERFORMANCE.md). The cap sits between, so a
# per-item render cost creeping back trips it.
BATCH_ITEM_CAP_PCT=28
ratio_gate batch-item BenchmarkHandleDispatch/batch64 BenchmarkHandleDispatch/bare \
    "$BATCH_ITEM_CAP_PCT" "per item" 64

# Handler alloc pins: allocs/op is a count, the same on every host, so
# BenchmarkHandleDispatch/*, BenchmarkFleetProxy and
# BenchmarkSnapshotCodec/read may not exceed the committed baseline
# (their ns/op is recorded, never gated). internal/server's
# TestDispatchHandlerAllocs and TestFleetProxyAllocs hold the handler's
# and the front tier's share in `go test`. The snapshot read allocates
# the matrix columns and a fixed handful per GOMAXPROCS-independent
# split; the encoding/json row reader took 42 k, so a reflection decoder
# coming back trips on the count. The write arm is not pinned: its
# count is encoding/json's pooled encoders for the rule tables, which
# moves with the scheduler, and the reflection row writer allocated no
# more than the hand-written one.
allocs_of() {
    sed -n 's/^[[:space:]]*"\(Benchmark\(HandleDispatch\|FleetProxy\|SnapshotCodec\/read\)[^"]*\)": {.*"allocs_per_op": \([0-9.]*\).*/\1 \3/p' "$1"
}
pinned=0
while read -r name base_allocs; do
    pinned=$((pinned + 1))
    fresh_allocs="$(allocs_of "$FRESH" | awk -v n="$name" '$1 == n {print $2}')"
    if [[ -z "$fresh_allocs" ]]; then
        printf '  MISS  %-40s gone from the fresh run (baseline pins its allocs/op)\n' "$name"
        status=1
        continue
    fi
    verdict="$(awk -v b="$base_allocs" -v f="$fresh_allocs" 'BEGIN { print (f > b) ? "FAIL" : "ok" }')"
    printf '  %-5s %-40s %12.1f -> %12.1f allocs/op (pin)\n' "$verdict" "$name" "$base_allocs" "$fresh_allocs"
    if [[ "$verdict" == "FAIL" ]]; then
        status=1
    fi
done < <(allocs_of "$BASELINE")
if [[ "$pinned" -eq 0 ]]; then
    echo "  MISS  alloc pins: no BenchmarkHandleDispatch, BenchmarkFleetProxy or BenchmarkSnapshotCodec/read entry in $BASELINE"
    status=1
fi

# A gated benchmark that vanished from the fresh sweep (renamed,
# deleted, or dropped from the bench binary) is itself a gate failure —
# otherwise losing the benchmark silently loses its protection.
while read -r name _; do
    case "$name" in
        BenchmarkDispatch*|BenchmarkCoalescedDispatch*|BenchmarkCanaryDispatch*|BenchmarkRuleGenerator|BenchmarkEvaluatorTrial*|BenchmarkSnapshotCodec*|BenchmarkDriftObserve|BenchmarkAdmit|BenchmarkTraceObserve) ;;
        *) continue ;;
    esac
    if ! awk -v n="$name" '$1 == n {found=1} END {exit !found}' /tmp/bench_fresh.$$; then
        if [[ "$name" == BenchmarkEvaluatorTrialDrawn/kernel && "$NO_AVX2" == 1 ]]; then
            printf '  SKIP  %-40s gone from the fresh run (no AVX2)\n' "$name"
            continue
        fi
        printf '  MISS  %-40s gone from the fresh run (baseline has it)\n' "$name"
        status=1
    fi
done < /tmp/bench_base.$$
rm -f /tmp/bench_base.$$ /tmp/bench_fresh.$$

if [[ "$status" -ne 0 ]]; then
    echo "bench_check: gate failed — investigate, or regenerate BENCH.json with scripts/bench.sh when a pinned allocs/op moved on purpose" >&2
fi
exit "$status"
