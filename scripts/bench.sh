#!/usr/bin/env bash
# Runs the hot-path benchmarks and emits a machine-readable BENCH.json
# baseline so the repository's performance trajectory is tracked over
# time. Usage:
#
#   ./scripts/bench.sh [count] [out.json]
#
# count defaults to 3 repetitions; output defaults to ./BENCH.json.
# Each entry records the mean ns/op (and B/op / allocs/op when the
# benchmark reports memory) across repetitions.
set -euo pipefail

COUNT="${1:-3}"
OUT="${2:-BENCH.json}"
BENCHES='BenchmarkPolicySimulate$|BenchmarkEvaluatorTrial$|BenchmarkEvaluatorTrialDrawn$|BenchmarkEvaluatorSetPolicy$|BenchmarkRuleGenerator$|BenchmarkColumnGather$|BenchmarkRegistryHandle$|BenchmarkProfileBuild$|BenchmarkDispatch$|BenchmarkDriftObserve$|BenchmarkAdmit$|BenchmarkCoalescedDispatch$|BenchmarkTraceObserve$|BenchmarkCanaryDispatch$'

cd "$(dirname "$0")/.."

# BenchmarkCoalescedDispatch brings five arms, serial and coalesced at
# 128 callers (a crowd) and at 8 (none), and embedded-c64 (the
# embedded node's shape); bench_check.sh gates their ratios.
# The two -c8 rows are recorded for that same-sweep ratio and for the
# gate's "vanished from the sweep" check only: their baseline ns/op is
# never compared (a contended microsecond, too host-bound to gate).
# The handler's own cost (POST /dispatch bare and instrumented, a 64-item
# batch) and the fleet hop (front tier handler, Pool.Proxy, one worker
# over a real socket) live beside the handler, in internal/server.
RAW="$(go test -run='^$' -bench="$BENCHES" -benchmem -count="$COUNT" .
go test -run='^$' -bench='BenchmarkHandleDispatch$|BenchmarkFleetProxy$' -benchmem -count="$COUNT" ./internal/server)"

echo "$RAW" | awk -v count="$COUNT" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix
    ns[name] += $3; nns[name]++
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "B/op")       { bytes[name] += $i; nb[name]++ }
        if ($(i+1) == "allocs/op")  { allocs[name] += $i; na[name]++ }
    }
}
END {
    printf "{\n  \"benchmarks\": {\n"
    n = 0
    for (name in ns) order[++n] = name
    # stable output: simple insertion sort by name
    for (i = 2; i <= n; i++) {
        key = order[i]
        for (j = i - 1; j >= 1 && order[j] > key; j--) order[j+1] = order[j]
        order[j+1] = key
    }
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %.2f", name, ns[name] / nns[name]
        if (nb[name] > 0) printf ", \"bytes_per_op\": %.1f", bytes[name] / nb[name]
        if (na[name] > 0) printf ", \"allocs_per_op\": %.1f", allocs[name] / na[name]
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "  },\n  \"repetitions\": %d\n}\n", count
}' > "$OUT"

echo "wrote $OUT:"
cat "$OUT"
