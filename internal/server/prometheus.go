package server

import (
	"bytes"
	"net/http"
	"sort"
	"strconv"
)

// GET /metrics/prometheus renders the node's state — the telemetry
// snapshot, admission ledger, drift detectors, coalesce counters, and
// the flight recorder's per-reason capture counts — in the Prometheus
// text exposition format, so a scraper gets the same numbers the JSON
// endpoints serve without a second instrumentation path. The exposition
// is hand-rolled (the repository takes no dependencies); metric and
// label syntax follows the text format v0.0.4.
//
// Handler-level metrics (request counts, the latency histogram) live in
// the optional Instrument middleware, which prepends its own families
// when it wraps this handler — the server itself only knows about the
// dispatch plane.

func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	s.writePrometheus(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}

// promWriter accumulates one exposition: TYPE lines are emitted once
// per family, in first-use order.
type promWriter struct {
	b     *bytes.Buffer
	typed map[string]bool
}

func newPromWriter(b *bytes.Buffer) *promWriter {
	return &promWriter{b: b, typed: make(map[string]bool)}
}

// family emits the # HELP / # TYPE preamble once.
func (p *promWriter) family(name, typ, help string) {
	if p.typed[name] {
		return
	}
	p.typed[name] = true
	p.b.WriteString("# HELP ")
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(help)
	p.b.WriteString("\n# TYPE ")
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(typ)
	p.b.WriteByte('\n')
}

// sample emits one sample line. labels alternate name, value.
func (p *promWriter) sample(name string, value float64, labels ...string) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.b.WriteByte(',')
			}
			p.b.WriteString(labels[i])
			p.b.WriteString(`="`)
			p.b.WriteString(promEscape(labels[i+1]))
			p.b.WriteByte('"')
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(strconv.FormatFloat(value, 'g', -1, 64))
	p.b.WriteByte('\n')
}

func (p *promWriter) count(name string, value int64, labels ...string) {
	p.sample(name, float64(value), labels...)
}

// promEscape escapes a label value per the text format (backslash,
// double quote, newline).
func promEscape(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '"' || c == '\n' {
			out := make([]byte, 0, len(s)+4)
			for j := 0; j < len(s); j++ {
				switch s[j] {
				case '\\':
					out = append(out, '\\', '\\')
				case '"':
					out = append(out, '\\', '"')
				case '\n':
					out = append(out, '\\', 'n')
				default:
					out = append(out, s[j])
				}
			}
			return string(out)
		}
	}
	return s
}

func (s *Server) writePrometheus(b *bytes.Buffer) {
	p := newPromWriter(b)

	// Dispatch-plane telemetry (the GET /telemetry snapshot).
	snap := s.disp.Snapshot()
	p.family("toltiers_dispatch_requests_total", "counter", "Dispatches since the runtime started.")
	p.count("toltiers_dispatch_requests_total", snap.Requests)
	p.family("toltiers_dispatch_failures_total", "counter", "Dispatches that produced no result.")
	p.count("toltiers_dispatch_failures_total", snap.Failures)
	p.family("toltiers_tier_requests_total", "counter", "Per-tier dispatch count.")
	p.family("toltiers_tier_escalations_total", "counter", "Per-tier escalations to the secondary backend.")
	p.family("toltiers_tier_hedges_total", "counter", "Per-tier deadline-forced hedges.")
	p.family("toltiers_tier_deadline_misses_total", "counter", "Per-tier latency-budget overruns.")
	p.family("toltiers_tier_escalation_failures_total", "counter", "Per-tier escalations whose secondary failed, served from the primary.")
	p.family("toltiers_tier_graded_total", "counter", "Per-tier requests whose task error was known.")
	p.family("toltiers_tier_mean_error", "gauge", "Per-tier online mean task error over graded requests.")
	p.family("toltiers_tier_mean_latency_ms", "gauge", "Per-tier mean reported latency.")
	p.family("toltiers_tier_max_latency_ms", "gauge", "Per-tier max reported latency.")
	p.family("toltiers_tier_mean_cost_usd", "gauge", "Per-tier mean invocation cost.")
	for _, t := range snap.Tiers {
		l := []string{"tier", t.Tier}
		p.count("toltiers_tier_requests_total", t.Requests, l...)
		p.count("toltiers_tier_escalations_total", t.Escalations, l...)
		p.count("toltiers_tier_hedges_total", t.Hedges, l...)
		p.count("toltiers_tier_deadline_misses_total", t.DeadlineMisses, l...)
		p.count("toltiers_tier_escalation_failures_total", t.EscalationFailures, l...)
		p.count("toltiers_tier_graded_total", t.Graded, l...)
		p.sample("toltiers_tier_mean_error", t.MeanErr, l...)
		p.sample("toltiers_tier_mean_latency_ms", t.MeanLatencyMS, l...)
		p.sample("toltiers_tier_max_latency_ms", t.MaxLatencyMS, l...)
		p.sample("toltiers_tier_mean_cost_usd", t.MeanCostUSD, l...)
	}
	p.family("toltiers_backend_invocations_total", "counter", "Per-backend invocation count.")
	p.family("toltiers_backend_mean_latency_ms", "gauge", "Per-backend mean observed latency.")
	p.family("toltiers_backend_p95_latency_ms", "gauge", "Per-backend hedging-quantile latency estimate.")
	p.family("toltiers_backend_invocation_usd_total", "counter", "Per-backend accumulated invocation billing.")
	p.family("toltiers_backend_iaas_usd_total", "counter", "Per-backend accumulated IaaS billing.")
	for _, be := range snap.Backends {
		l := []string{"backend", be.Backend}
		p.count("toltiers_backend_invocations_total", be.Invocations, l...)
		p.sample("toltiers_backend_mean_latency_ms", be.MeanLatencyMS, l...)
		p.sample("toltiers_backend_p95_latency_ms", be.P95LatencyMS, l...)
		p.sample("toltiers_backend_invocation_usd_total", be.InvocationUSD, l...)
		p.sample("toltiers_backend_iaas_usd_total", be.IaaSUSD, l...)
	}

	// Admission ledger (the GET /admission counters).
	adm := s.adm.Status()
	p.family("toltiers_admission_state", "gauge", "Admission state: 0 disabled, 1 normal, 2 brownout.")
	var state float64
	switch adm.State {
	case "normal":
		state = 1
	case "brownout":
		state = 2
	}
	p.sample("toltiers_admission_state", state)
	p.family("toltiers_admission_in_flight", "gauge", "Admitted-but-unfinished dispatches.")
	p.count("toltiers_admission_in_flight", adm.InFlight)
	p.family("toltiers_admitted_total", "counter", "Admitted requests.")
	p.count("toltiers_admitted_total", adm.Admitted)
	p.family("toltiers_shed_total", "counter", "Rejected requests by cause.")
	p.count("toltiers_shed_total", adm.ShedRate, "cause", "rate")
	p.count("toltiers_shed_total", adm.ShedCapacity, "cause", "capacity")
	p.count("toltiers_shed_total", adm.ShedDeadline, "cause", "deadline")
	p.family("toltiers_downgraded_total", "counter", "Admissions served under brownout at the cheaper tier.")
	p.count("toltiers_downgraded_total", adm.Downgraded)
	p.family("toltiers_brownout_transitions_total", "counter", "Brownout controller transitions.")
	p.count("toltiers_brownout_transitions_total", adm.BrownoutEngaged, "transition", "engaged")
	p.count("toltiers_brownout_transitions_total", adm.BrownoutReleased, "transition", "released")
	p.family("toltiers_tenant_admitted_total", "counter", "Per-tenant admitted requests.")
	p.family("toltiers_tenant_shed_total", "counter", "Per-tenant rejections by cause.")
	for _, t := range adm.Tenants {
		p.count("toltiers_tenant_admitted_total", t.Admitted, "tenant", t.Tenant)
		p.count("toltiers_tenant_shed_total", t.ShedRate, "tenant", t.Tenant, "cause", "rate")
		p.count("toltiers_tenant_shed_total", t.ShedCapacity, "tenant", t.Tenant, "cause", "capacity")
		p.count("toltiers_tenant_shed_total", t.ShedDeadline, "tenant", t.Tenant, "cause", "deadline")
	}

	// Drift detectors (the GET /drift statistics).
	dr := s.driftStatus()
	p.family("toltiers_drift_reprofiles_total", "counter", "Completed self-healing re-profile loops.")
	p.count("toltiers_drift_reprofiles_total", dr.Reprofiles)
	p.family("toltiers_drift_tier_alarmed", "gauge", "1 when a tier drift detector holds an uncollected alarm.")
	p.family("toltiers_drift_tier_err_ph", "gauge", "Per-tier Page-Hinkley statistic over task error.")
	p.family("toltiers_drift_tier_lat_ph", "gauge", "Per-tier Page-Hinkley statistic over latency.")
	for _, t := range dr.Tiers {
		l := []string{"tier", t.Tier}
		alarmed := 0.0
		if t.Alarmed {
			alarmed = 1
		}
		p.sample("toltiers_drift_tier_alarmed", alarmed, l...)
		p.sample("toltiers_drift_tier_err_ph", t.ErrPH, l...)
		p.sample("toltiers_drift_tier_lat_ph", t.LatPH, l...)
	}
	p.family("toltiers_drift_backend_alarmed", "gauge", "1 when a backend latency detector holds an uncollected alarm.")
	p.family("toltiers_drift_backend_baseline_p95_ms", "gauge", "Profiled backend latency baseline at the hedge quantile.")
	p.family("toltiers_drift_backend_observed_p95_ms", "gauge", "Observed backend latency at the hedge quantile.")
	for _, be := range dr.Backends {
		l := []string{"backend", be.Backend}
		alarmed := 0.0
		if be.Alarmed {
			alarmed = 1
		}
		p.sample("toltiers_drift_backend_alarmed", alarmed, l...)
		p.sample("toltiers_drift_backend_baseline_p95_ms", be.BaselineP95MS, l...)
		p.sample("toltiers_drift_backend_observed_p95_ms", be.ObservedP95MS, l...)
	}

	// Coalesce counters, when the node batches /dispatch traffic.
	if s.coal != nil {
		cs := s.coal.Stats()
		p.family("toltiers_coalesce_requests_total", "counter", "Requests through the coalescer by path.")
		p.count("toltiers_coalesce_requests_total", cs.Bypassed, "path", "bypassed")
		p.count("toltiers_coalesce_requests_total", cs.Coalesced, "path", "coalesced")
		p.family("toltiers_coalesce_windows_total", "counter", "Flushed coalesce windows.")
		p.count("toltiers_coalesce_windows_total", cs.Windows)
		p.family("toltiers_coalesce_size_flushes_total", "counter", "Windows flushed by the size trigger.")
		p.count("toltiers_coalesce_size_flushes_total", cs.SizeFlushes)
		p.family("toltiers_coalesce_shed_total", "counter", "Requests the window gate rejected.")
		p.count("toltiers_coalesce_shed_total", cs.Shed)
		p.family("toltiers_coalesce_left_total", "counter", "Requests that left a window on cancellation.")
		p.count("toltiers_coalesce_left_total", cs.Left)
	}

	// Flight-recorder capture counters.
	if s.rec != nil {
		st := s.rec.Stats()
		p.family("toltiers_trace_dispatches_total", "counter", "Dispatches the flight recorder observed.")
		p.count("toltiers_trace_dispatches_total", st.Dispatches)
		p.family("toltiers_trace_sheds_total", "counter", "Admission sheds the flight recorder captured.")
		p.count("toltiers_trace_sheds_total", st.Sheds)
		p.family("toltiers_trace_spans_total", "counter", "Committed spans by capture reason.")
		kinds := make([]string, 0, len(st.Kinds))
		for k := range st.Kinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			p.count("toltiers_trace_spans_total", st.Kinds[k], "kind", k)
		}
	}
}
