#!/usr/bin/env bash
# CI benchmark regression gate: reruns the hot-path benchmarks through
# scripts/bench.sh and compares the fresh numbers against the committed
# BENCH.json baseline. Fails (exit 1) when a gated benchmark's mean
# ns/op regresses by more than the threshold.
#
#   ./scripts/bench_check.sh [count] [threshold-pct] [fresh-out.json]
#
# count defaults to 3 repetitions (passed through to bench.sh);
# threshold defaults to 30 (percent). Gated benchmarks: the dispatch
# runtime (BenchmarkDispatch*), the Fig.-7 sweep (BenchmarkRuleGenerator),
# the bootstrap kernel (BenchmarkEvaluatorTrial), the drift monitor's
# observe path (BenchmarkDriftObserve, which must also stay at 0
# allocs/op — see internal/drift's alloc-regression test), the
# admission accept path (BenchmarkAdmit, pinned at 0 allocs/op by
# internal/admit's alloc-regression test) and the flight recorder's
# observe path (BenchmarkTraceObserve, 0 allocs/op pinned by
# internal/trace's alloc test). The recorder's dispatch overhead is
# additionally gated within the fresh run itself: serial-traced must
# stay within TRACE_OVERHEAD_PCT of serial (same sweep, so host speed
# cancels out), and canary-split dispatch (BenchmarkCanaryDispatch/split)
# must stay within CANARY_OVERHEAD_PCT of the untracked path
# (BenchmarkCanaryDispatch/off). The coalescer is gated the same way, as
# two same-sweep ratios of BenchmarkCoalescedDispatch: with a crowd
# (128 callers against MaxBatch 64) coalesced must cost at most 0.75x
# serial — batching keeps paying — and below the crowd (8 callers) at
# most 1.5x serial — the coalescer is a pass-through, not a timer wait;
# the -c8 pair is gated by that ratio only. The HTTP handler's allocation budget
# (BenchmarkHandleDispatch/*, allocs/op) and the fleet hop's
# (BenchmarkFleetProxy, front tier plus one worker) are pinned against
# the baseline as counts — allocs/op repeats exactly on any host, so this
# is a pin, not a ns gate, and their ns/op is recorded only. Benchmarks present
# in the fresh run but absent from the baseline are reported as new and
# do not fail the gate. When fresh-out.json is given, the fresh run's
# JSON is kept there (CI uploads it as the new baseline artifact instead
# of paying for a second full sweep).
set -euo pipefail

COUNT="${1:-3}"
THRESHOLD="${2:-30}"
KEEP="${3:-}"

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

./scripts/bench.sh "$COUNT" "$FRESH" >/dev/null

# Pull "name": {"ns_per_op": X, ...} pairs out of a bench.sh JSON.
extract() {
    sed -n 's/^[[:space:]]*"\([^"]*\)": {"ns_per_op": \([0-9.]*\).*/\1 \2/p' "$1"
}

extract "$BASELINE" > /tmp/bench_base.$$
extract "$FRESH" > /tmp/bench_fresh.$$

status=0
echo "bench_check: comparing against $BASELINE (threshold +${THRESHOLD}%)"
while read -r name fresh_ns; do
    case "$name" in
        BenchmarkDispatch*|BenchmarkCoalescedDispatch*|BenchmarkCanaryDispatch*|BenchmarkRuleGenerator|BenchmarkEvaluatorTrial|BenchmarkDriftObserve|BenchmarkAdmit|BenchmarkTraceObserve) ;;
        *) continue ;;
    esac
    case "$name" in
        BenchmarkCoalescedDispatch/*-c8) continue ;; # ratio-gated only, below
    esac
    base_ns="$(awk -v n="$name" '$1 == n {print $2}' /tmp/bench_base.$$)"
    if [[ -z "$base_ns" ]]; then
        printf '  NEW   %-40s %12.1f ns/op (no baseline)\n' "$name" "$fresh_ns"
        continue
    fi
    verdict="$(awk -v b="$base_ns" -v f="$fresh_ns" -v t="$THRESHOLD" \
        'BEGIN { print (f > b * (1 + t / 100)) ? "FAIL" : "ok" }')"
    delta="$(awk -v b="$base_ns" -v f="$fresh_ns" 'BEGIN { printf "%+.1f", (f / b - 1) * 100 }')"
    printf '  %-5s %-40s %12.1f -> %12.1f ns/op (%s%%)\n' "$verdict" "$name" "$base_ns" "$fresh_ns" "$delta"
    if [[ "$verdict" == "FAIL" ]]; then
        status=1
    fi
done < /tmp/bench_fresh.$$

# Recorder-overhead gate, computed within the single fresh sweep so
# host-speed variance cancels: the traced serial dispatch must stay
# within TRACE_OVERHEAD_PCT of the untraced one. The measured floor on
# the two-leg concurrent replay policy is ~16-18% (one counter RMW, two
# leg captures, span reset + finish per ~300ns dispatch — see
# PERFORMANCE.md); 25% leaves headroom for run-to-run noise while still
# catching a real regression in the recording fast path.
TRACE_OVERHEAD_PCT="${TRACE_OVERHEAD_PCT:-25}"
serial_ns="$(awk '$1 == "BenchmarkDispatch/serial" {print $2}' /tmp/bench_fresh.$$)"
traced_ns="$(awk '$1 == "BenchmarkDispatch/serial-traced" {print $2}' /tmp/bench_fresh.$$)"
if [[ -n "$serial_ns" && -n "$traced_ns" ]]; then
    verdict="$(awk -v s="$serial_ns" -v t="$traced_ns" -v p="$TRACE_OVERHEAD_PCT" \
        'BEGIN { print (t > s * (1 + p / 100)) ? "FAIL" : "ok" }')"
    delta="$(awk -v s="$serial_ns" -v t="$traced_ns" 'BEGIN { printf "%+.1f", (t / s - 1) * 100 }')"
    printf '  %-5s %-40s %12.1f vs %12.1f ns/op (%s%% recorder overhead, cap +%s%%)\n' \
        "$verdict" "recorder-overhead(serial-traced/serial)" "$serial_ns" "$traced_ns" "$delta" "$TRACE_OVERHEAD_PCT"
    if [[ "$verdict" == "FAIL" ]]; then
        status=1
    fi
else
    echo "  MISS  recorder-overhead gate: serial/serial-traced pair absent from fresh run"
    status=1
fi

# Canary-split gate, same-sweep like the recorder gate: dispatch with a
# live canary trial splitting traffic (tenant hash + ticket routing to
# the canary arm) must stay within CANARY_OVERHEAD_PCT of the untracked
# path. Measured floor is ~8-9% (one hash + modulo per ticket, canary
# observer indirection — see PERFORMANCE.md); 10% is the ISSUE's 1.10x
# promise with the measured headroom.
CANARY_OVERHEAD_PCT="${CANARY_OVERHEAD_PCT:-10}"
off_ns="$(awk '$1 == "BenchmarkCanaryDispatch/off" {print $2}' /tmp/bench_fresh.$$)"
split_ns="$(awk '$1 == "BenchmarkCanaryDispatch/split" {print $2}' /tmp/bench_fresh.$$)"
if [[ -n "$off_ns" && -n "$split_ns" ]]; then
    verdict="$(awk -v s="$off_ns" -v t="$split_ns" -v p="$CANARY_OVERHEAD_PCT" \
        'BEGIN { print (t > s * (1 + p / 100)) ? "FAIL" : "ok" }')"
    delta="$(awk -v s="$off_ns" -v t="$split_ns" 'BEGIN { printf "%+.1f", (t / s - 1) * 100 }')"
    printf '  %-5s %-40s %12.1f vs %12.1f ns/op (%s%% canary-split overhead, cap +%s%%)\n' \
        "$verdict" "canary-overhead(split/off)" "$off_ns" "$split_ns" "$delta" "$CANARY_OVERHEAD_PCT"
    if [[ "$verdict" == "FAIL" ]]; then
        status=1
    fi
else
    echo "  MISS  canary-overhead gate: off/split pair absent from fresh run"
    status=1
fi

# Coalescer gates, same-sweep like the two above. ratio_gate fails when
# the coalesced arm's ns/op exceeds cap_pct percent of its serial twin's.
ratio_gate() {
    local label="$1" callers="$2" cap_pct="$3" what="$4"
    local serial coalesced verdict ratio
    serial="$(awk -v n="BenchmarkCoalescedDispatch/serial-$callers" '$1 == n {print $2}' /tmp/bench_fresh.$$)"
    coalesced="$(awk -v n="BenchmarkCoalescedDispatch/coalesced-$callers" '$1 == n {print $2}' /tmp/bench_fresh.$$)"
    if [[ -z "$serial" || -z "$coalesced" ]]; then
        echo "  MISS  $label gate: serial-$callers/coalesced-$callers pair absent from fresh run"
        status=1
        return
    fi
    verdict="$(awk -v s="$serial" -v c="$coalesced" -v p="$cap_pct" \
        'BEGIN { print (c > s * p / 100) ? "FAIL" : "ok" }')"
    ratio="$(awk -v s="$serial" -v c="$coalesced" 'BEGIN { printf "%.2f", c / s }')"
    printf '  %-5s %-40s %12.1f vs %12.1f ns/op (%sx serial, cap %sx: %s)\n' \
        "$verdict" "$label(coalesced-$callers/serial-$callers)" "$serial" "$coalesced" "$ratio" \
        "$(awk -v p="$cap_pct" 'BEGIN { printf "%.2f", p / 100 }')" "$what"
    if [[ "$verdict" == "FAIL" ]]; then
        status=1
    fi
}
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
ratio_gate coalesce-crowd c128 75 "batching pays"
ratio_gate coalesce-subcrowd c8 150 "pass-through"

# Handler alloc pins: allocs/op is a count, the same on every host, so
# BenchmarkHandleDispatch/* and BenchmarkFleetProxy may not exceed the
# committed baseline (their ns/op is recorded, never gated).
# internal/server's TestDispatchHandlerAllocs and TestFleetProxyAllocs
# hold the handler's and the front tier's share in `go test`.
allocs_of() {
    sed -n 's/^[[:space:]]*"\(Benchmark\(HandleDispatch\|FleetProxy\)[^"]*\)": {.*"allocs_per_op": \([0-9.]*\).*/\1 \3/p' "$1"
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
    echo "  MISS  handler alloc pins: no BenchmarkHandleDispatch or BenchmarkFleetProxy entry in $BASELINE"
    status=1
fi

# A gated benchmark that vanished from the fresh sweep (renamed,
# deleted, or dropped from the bench binary) is itself a gate failure —
# otherwise losing the benchmark silently loses its protection.
while read -r name _; do
    case "$name" in
        BenchmarkDispatch*|BenchmarkCoalescedDispatch*|BenchmarkCanaryDispatch*|BenchmarkRuleGenerator|BenchmarkEvaluatorTrial|BenchmarkDriftObserve|BenchmarkAdmit|BenchmarkTraceObserve) ;;
        *) continue ;;
    esac
    if ! awk -v n="$name" '$1 == n {found=1} END {exit !found}' /tmp/bench_fresh.$$; then
        printf '  MISS  %-40s gone from the fresh run (baseline has it)\n' "$name"
        status=1
    fi
done < /tmp/bench_base.$$
rm -f /tmp/bench_base.$$ /tmp/bench_fresh.$$

if [[ "$status" -ne 0 ]]; then
    echo "bench_check: ns/op regression beyond ${THRESHOLD}% — investigate or regenerate BENCH.json with scripts/bench.sh" >&2
fi
exit "$status"
