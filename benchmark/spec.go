package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's contract: BENCHMARK.json at the root of the repo is
// exactly what specJSON prints, and a test keeps the two equal. Metric
// and workload names are normative (ISSUE 15); README.md defines each.

const runSeconds = 20

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

const (
	wlDirectSingle = "direct_single"
	wlDirectBatch  = "direct_batch"
	wlFleetSingle  = "fleet_single"
	wlEmbedded     = "embedded_contended"
)

var workloads = []workloadSpec{
	{wlDirectSingle, "POST /dispatch one request per call on 16 connections per core: api, server glue and net/http do nearly all the work, CPU-bound; the bypass for every fleet change"},
	{wlDirectBatch, "POST /dispatch/batch 64 ids per call: one decode, DoBatch, one large encode, socket cost amortised; splits from direct_single when small bodies win at the cost of large ones"},
	{wlFleetSingle, "the direct_single stream through a fleet front tier to two in-process workers: Pool.Proxy and the extra hop do the added work; must not move direct_*"},
	{wlEmbedded, "no HTTP: 64 goroutines through Registry.Resolve and Coalescer.Do with real windows: admit, coalesce, dispatch, drift and trace do all the work, api and net/http none"},
}

func bounded(name, unit, better string, bound float64) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better, Bound: &bound}
}

// endToEnd: every metric is taken from the closed loop or is a count.
// The bounds of the time-based ones are wider than the issue's 0.10
// targets: REPEATABILITY.md has the measured A/A spread that forces it.
var endToEnd = []metricSpec{
	bounded("setup_s", "s", "lower", 0.25),
	bounded("throughput_rps", "1/s", "higher", 0.20),
	bounded("latency_p50_ms", "ms", "lower", 0.20),
	bounded("cpu_us_per_op", "us", "lower", 0.20),
	bounded("alloc_bytes_per_op", "B", "lower", 0.05),
	bounded("peak_rss_mb", "MB", "lower", 0.15),
	bounded("svc_latency_ms", "ms", "lower", 0.02),
	bounded("svc_error_rate", "ratio", "lower", 0.02),
	bounded("svc_cost_usd_per_kreq", "USD", "lower", 0.02),
}

func layer(name, unit, better string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better}
}

var perLayer = []metricSpec{
	layer("api.decode_ns", "ns", "lower"),
	layer("api.decode_allocs", "count", "lower"),
	layer("api.encode_ns", "ns", "lower"),
	layer("api.decode_batch_ns_per_item", "ns", "lower"),
	layer("api.encode_batch_ns_per_item", "ns", "lower"),
	layer("tiers.resolve_ns", "ns", "lower"),
	layer("admit.admit_ns", "ns", "lower"),
	layer("admit.admitbatch_ns_per_item", "ns", "lower"),
	layer("admit.shed_ratio", "ratio", "lower"),
	layer("admit.downgrade_ratio", "ratio", "lower"),
	layer("coalesce.bypass_overhead_ns", "ns", "lower"),
	layer("coalesce.bypass_ratio", "ratio", "higher"),
	layer("coalesce.mean_window", "count", "higher"),
	layer("coalesce.size_flush_ratio", "ratio", "higher"),
	layer("coalesce.do_p50_us", "us", "lower"),
	layer("coalesce.do_p99_us", "us", "lower"),
	layer("dispatch.do_ns", "ns", "lower"),
	layer("dispatch.dobatch_ns_per_item", "ns", "lower"),
	layer("dispatch.escalation_ratio", "ratio", "lower"),
	layer("dispatch.hedge_ratio", "ratio", "lower"),
	layer("dispatch.failures", "count", "lower"),
	layer("drift.observe_ns", "ns", "lower"),
	layer("drift.events", "count", "lower"),
	layer("trace.recorder_overhead_ns", "ns", "lower"),
	layer("trace.kept_ratio", "ratio", "lower"),
	layer("server.handler_ns", "ns", "lower"),
	layer("server.handler_allocs", "count", "lower"),
	layer("server.handler_bytes", "B", "lower"),
	layer("server.batch_handler_ns_per_item", "ns", "lower"),
	layer("server.middleware_ns", "ns", "lower"),
	layer("server.unattributed_ns", "ns", "lower"),
	layer("server.construct_ms", "ms", "lower"),
	layer("fleet.proxy_us", "us", "lower"),
	layer("fleet.hop_overhead_us", "us", "lower"),
	layer("fleet.failover_ratio", "ratio", "lower"),
	layer("fleet.fallback_ratio", "ratio", "lower"),
	layer("fleet.worker_max_share", "ratio", "lower"),
	layer("fleet.bootstrap_ms", "ms", "lower"),
	layer("fleet.snapshot_bytes", "B", "lower"),
	layer("state.encode_ms", "ms", "lower"),
	layer("state.decode_ms", "ms", "lower"),
	layer("profile.build_ms", "ms", "lower"),
	layer("rulegen.generate_ms", "ms", "lower"),
	layer("nethttp.roundtrip_us", "us", "lower"),
	layer("nethttp.null_roundtrip_us", "us", "lower"),
	layer("nethttp.overhead_us", "us", "lower"),
	layer("loadgen.paced_p50_ms", "ms", "lower"),
	layer("loadgen.paced_p99_ms", "ms", "lower"),
	layer("loadgen.lateness_p99_ms", "ms", "lower"),
	layer("loadgen.cpu_share", "ratio", "lower"),
	layer("loadgen.sent", "count", "higher"),
	layer("loadgen.completed", "count", "higher"),
	layer("loadgen.fail_ratio", "ratio", "lower"),
	layer("proc.gc_pause_p99_us", "us", "lower"),
	layer("proc.gc_cpu_fraction", "ratio", "lower"),
	layer("proc.goroutines_peak", "count", "lower"),
	layer("tail.closed_p99_ms", "ms", "lower"),
	layer("spans.coverage", "ratio", "higher"),
	layer("spans.overhead_ratio", "ratio", "higher"),
	layer("compose.predicted_rps", "1/s", "higher"),
	layer("compose.error_ratio", "ratio", "lower"),
}

func spec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec()); err != nil {
		panic(err) // the spec is a literal of marshalable types
	}
	return buf.Bytes()
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
