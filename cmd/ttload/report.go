package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/stats"
	"github.com/toltiers/toltiers/internal/tablewriter"
)

// The reporters print what the node's read side answered (GET
// /telemetry, /admission, /drift, /trace/recent) beside the generator's
// own ledger; none of them reads node state any other way.

func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

func report(l *ledger, elapsed time.Duration, batchN int) {
	keys := make([]string, 0, len(l.tiers))
	total := 0
	for k, ts := range l.tiers {
		keys = append(keys, k)
		total += len(ts.wallMS) + ts.failures + ts.shed
	}
	sort.Strings(keys)
	t := tablewriter.New(
		fmt.Sprintf("ttload — %d requests in %v (%.0f achieved rps)", total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds()),
		"tier", "n", "wall p50 (ms)", "wall p95 (ms)", "wall p99 (ms)", "svc p50 (ms)", "svc p95 (ms)", "escalated", "hedged", "deadline miss", "downgraded", "shed", "fail")
	for _, k := range keys {
		ts := l.tiers[k]
		t.AddStrings(k, fmt.Sprint(len(ts.wallMS)),
			fmt.Sprintf("%.3f", quantile(ts.wallMS, 0.50)),
			fmt.Sprintf("%.3f", quantile(ts.wallMS, 0.95)),
			fmt.Sprintf("%.3f", quantile(ts.wallMS, 0.99)),
			fmt.Sprintf("%.2f", quantile(ts.simulatedMS, 0.50)),
			fmt.Sprintf("%.2f", quantile(ts.simulatedMS, 0.95)),
			fmt.Sprint(ts.escalated), fmt.Sprint(ts.hedged), fmt.Sprint(ts.misses),
			fmt.Sprint(ts.downgraded), fmt.Sprint(ts.shed), fmt.Sprint(ts.failures))
	}
	t.Caption = "tiers key by requested annotation; wall = end-to-end dispatch time at the generator; svc = reported service latency"
	if batchN > 1 {
		t.Caption = fmt.Sprintf("tiers key by requested annotation; wall = whole-batch dispatch time (batch %d, every item of a batch shares it); svc = reported service latency", batchN)
	}
	if err := t.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func reportTelemetry(snap *api.TelemetrySnapshot) {
	t := tablewriter.New("runtime telemetry (per backend)",
		"backend", "invocations", "mean lat (ms)", "p95 lat (ms)", "invocation $", "IaaS $")
	for _, b := range snap.Backends {
		t.AddStrings(b.Backend, fmt.Sprint(b.Invocations),
			fmt.Sprintf("%.2f", b.MeanLatencyMS), fmt.Sprintf("%.2f", b.P95LatencyMS),
			fmt.Sprintf("%.4f", b.InvocationUSD), fmt.Sprintf("%.6f", b.IaaSUSD))
	}
	if err := t.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// reportTenants prints the arrival ledger of every Tenant header the
// generator sent alongside the node's telemetry partition of that
// tenant.
func reportTenants(l *ledger, parts map[string]*api.TenantTelemetry) {
	keys := make([]string, 0, len(l.tenants))
	for k := range l.tenants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := tablewriter.New("per-tenant accounting",
		"tenant", "sent", "graded", "failed", "shed", "partition reqs", "partition fails")
	for _, k := range keys {
		s, part := l.tenants[k], parts[k]
		t.AddStrings(k, fmt.Sprint(s.sent), fmt.Sprint(len(s.wallMS)), fmt.Sprint(s.failures),
			fmt.Sprint(s.shed), fmt.Sprint(part.Requests), fmt.Sprint(part.Failures))
	}
	t.Caption = "partition columns read back GET /telemetry?tenant=; sheds and unrouted failures never reach the dispatcher"
	if err := t.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// reportAdmission prints the admission layer's per-tenant counters and
// brownout state (the graceful-degradation ledger of an -overload run).
func reportAdmission(st api.AdmissionStatus) {
	t := tablewriter.New(
		fmt.Sprintf("admission — state %s, in-flight %d, brownout engaged %d / released %d",
			st.State, st.InFlight, st.BrownoutEngaged, st.BrownoutReleased),
		"tenant", "admitted", "shed 429", "shed 503 capacity", "shed 503 deadline", "downgraded")
	for _, tn := range st.Tenants {
		t.AddStrings(tn.Tenant, fmt.Sprint(tn.Admitted), fmt.Sprint(tn.ShedRate),
			fmt.Sprint(tn.ShedCapacity), fmt.Sprint(tn.ShedDeadline), fmt.Sprint(tn.Downgraded))
	}
	t.AddStrings("(fleet)", fmt.Sprint(st.Admitted), fmt.Sprint(st.ShedRate),
		fmt.Sprint(st.ShedCapacity), fmt.Sprint(st.ShedDeadline), fmt.Sprint(st.Downgraded))
	t.Caption = "admitted + shed + downgraded account for every arrival the layer saw; downgrades are also admitted"
	if err := t.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// traceExemplarsPerTier caps the -trace report at the slowest few
// spans per tier; the node's ring stays queryable over GET /trace/recent.
const traceExemplarsPerTier = 3

func legString(l api.TraceLeg) string {
	s := fmt.Sprintf("%s %.2fms", l.Backend, l.ServiceMS)
	var flags []string
	if l.Hedge {
		flags = append(flags, "hedge")
	}
	if l.Escalated {
		flags = append(flags, "esc")
	}
	if l.Cancelled {
		flags = append(flags, "cancelled")
	}
	if l.Error != "" {
		flags = append(flags, "err:"+l.Error)
	}
	if len(flags) > 0 {
		s += " (" + strings.Join(flags, ",") + ")"
	}
	return s
}

// reportTrace prints the slowest recorded exemplars per tier — head
// samples plus the always-kept tail (errors, sheds, hedges, slow
// outliers).
func reportTrace(spans []api.TraceSpan) {
	if len(spans) == 0 {
		log.Printf("trace: recorder holds no spans (sampled out or no traffic)")
		return
	}
	byTier := make(map[string][]api.TraceSpan)
	for _, s := range spans {
		byTier[s.Tier] = append(byTier[s.Tier], s)
	}
	keys := make([]string, 0, len(byTier))
	for k := range byTier {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := tablewriter.New("slowest trace exemplars (per tier)",
		"tier", "trace id", "kind", "admit", "latency (ms)", "park (ms)", "window", "legs")
	for _, k := range keys {
		ss := byTier[k]
		sort.Slice(ss, func(i, j int) bool { return ss[i].LatencyMS > ss[j].LatencyMS })
		if len(ss) > traceExemplarsPerTier {
			ss = ss[:traceExemplarsPerTier]
		}
		for _, s := range ss {
			win, park, adm := "-", "-", s.Admit
			if s.Window != 0 {
				win = fmt.Sprint(s.Window)
			}
			if s.ParkMS > 0 {
				park = fmt.Sprintf("%.3f", s.ParkMS)
			}
			if adm == "" {
				adm = "-"
			}
			legs := make([]string, len(s.Legs))
			for i, l := range s.Legs {
				legs[i] = legString(l)
			}
			t.AddStrings(s.Tier, s.ID, s.Kind, adm,
				fmt.Sprintf("%.3f", s.LatencyMS), park, win, strings.Join(legs, " | "))
		}
	}
	t.Caption = "head-sampled plus tail exemplars (errors, sheds, hedges, slow outliers always kept); fetch one by id with GET /trace/{id}"
	if err := t.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// reportDrift prints the drift monitor's detector state and any
// confirmed shift events.
func reportDrift(st api.DriftStatus) {
	t := tablewriter.New(fmt.Sprintf("drift detectors (%s, %d reprofiles)", st.State, st.Reprofiles),
		"stream", "windows", "mean err", "mean lat (ms)", "err PH", "lat PH", "err CUSUM", "lat CUSUM", "alarmed")
	for _, ti := range st.Tiers {
		t.AddStrings("tier:"+ti.Tier, fmt.Sprint(ti.Windows),
			fmt.Sprintf("%.4f", ti.MeanErr), fmt.Sprintf("%.2f", ti.MeanLatencyMS),
			fmt.Sprintf("%.3f", ti.ErrPH), fmt.Sprintf("%.3f", ti.LatPH),
			fmt.Sprintf("%.2f", ti.ErrCusum), fmt.Sprintf("%.2f", ti.LatCusum),
			fmt.Sprint(ti.Alarmed))
	}
	for _, b := range st.Backends {
		t.AddStrings("backend:"+b.Backend, "-", "-",
			fmt.Sprintf("p95 %.2f/%.2f", b.ObservedP95MS, b.BaselineP95MS),
			"-", "-", "-", fmt.Sprintf("strikes %d", b.Strikes), fmt.Sprint(b.Alarmed))
	}
	if err := t.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	for _, e := range st.Events {
		log.Printf("drift event: %s %s value %.4g threshold %.4g", e.Stream, e.Detector, e.Value, e.Threshold)
	}
	if len(st.Heals) > 0 {
		h := tablewriter.New(fmt.Sprintf("self-healing history (%d attempts)", len(st.Heals)),
			"finished", "verdict", "duration (s)", "job", "trigger / error")
		for _, rec := range st.Heals {
			detail := rec.Trigger
			if rec.Error != "" {
				detail = rec.Error
			}
			h.AddStrings(time.UnixMilli(rec.UnixMS).Format("15:04:05"), rec.Verdict,
				fmt.Sprintf("%.2f", rec.DurationMS/1e3), fmt.Sprint(rec.JobID), detail)
		}
		if err := h.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
