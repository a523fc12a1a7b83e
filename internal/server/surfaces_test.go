package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/rulegen"
)

// TestSurfacesReconcile holds the node's views of its counters to each
// other and to what it answered. After mixed /dispatch and
// /dispatch/batch traffic from two tenants and anonymous callers, with
// at least one rate shed and one escalation, through a node that
// coalesces, admits and records:
//   - every dispatch, tier and backend sample of GET /metrics/prometheus
//     equals its GET /telemetry field;
//   - the admitted and shed samples equal GET /admission;
//   - per tier, GET /telemetry counts exactly the 200 answers served on
//     it, and its mean latency and mean cost are their means.
func TestSurfacesReconcile(t *testing.T) {
	reg, m, corpus := coalesceFixture(t)
	backends := dispatch.NewReplayBackends(m)
	for i, b := range backends {
		backends[i] = slowBackend{b, 200 * time.Microsecond}
	}
	const noisyBurst = 4
	srv := NewWithConfig(reg, corpus.Requests, Config{
		Matrix:   m,
		Backends: backends,
		Coalesce: &coalesce.Options{MaxBatch: 4},
		Admission: admit.Config{
			Enabled: true,
			Tenants: map[string]api.Rate{"noisy": {PerSec: 0.001, Burst: noisyBurst}},
		},
	})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ctx := context.Background()
	obj := rulegen.MinimizeLatency
	tols := []float64{0, 0.05, 0.10}

	// A request a two-leg tier must escalate: its primary's profiled
	// confidence misses the tier's threshold.
	escTol, escID := math.NaN(), 0
	for _, tol := range tols {
		rule, err := reg.Resolve(tol, obj)
		if err != nil {
			t.Fatal(err)
		}
		p := rule.Candidate.Policy
		if p.Kind == ensemble.Single {
			continue
		}
		for r := 0; r < m.NumRequests(); r++ {
			if m.Confidence[m.Index(r, p.Primary)] < p.Threshold {
				escTol, escID = tol, m.RequestIDs[r]
				break
			}
		}
		if !math.IsNaN(escTol) {
			break
		}
	}
	if math.IsNaN(escTol) {
		t.Fatal("no tier of the fixture escalates any request")
	}

	type answer struct{ latencyMS, costUSD float64 }
	var mu sync.Mutex
	served := make(map[string][]answer) // by tier key
	record := func(r *api.DispatchResult) {
		mu.Lock()
		k := dispatch.TierKey(r.Objective, r.Tier)
		served[k] = append(served[k], answer{r.LatencyMS, r.CostUSD})
		mu.Unlock()
	}

	anon := client.New(ts.URL, ts.Client())
	acme := anon.WithTenant("acme")
	noisy := anon.WithTenant("noisy")

	// Concurrent mixed traffic: every sixth operation is a batch.
	const workers, perWorker, batchLen = 8, 24, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		cl := anon
		if w%2 == 0 {
			cl = acme
		}
		wg.Add(1)
		go func(w int, cl *client.Client) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tol := tols[(w+i)%len(tols)]
				id := corpus.Requests[(w*perWorker+i)%len(corpus.Requests)].ID
				if w == 0 && i == 0 {
					tol, id = escTol, escID
				}
				if i%6 == 5 {
					ids := make([]int, batchLen)
					for j := range ids {
						ids[j] = corpus.Requests[(w*perWorker+i+j)%len(corpus.Requests)].ID
					}
					res, err := cl.DispatchBatch(ctx, ids, tol, obj, 0)
					if err != nil {
						errs <- err
						return
					}
					for j := range res.Items {
						if res.Items[j].Error != "" {
							errs <- errors.New(res.Items[j].Error)
							return
						}
						record(&res.Items[j].DispatchResult)
					}
					continue
				}
				res, err := cl.Dispatch(ctx, id, tol, obj, 0)
				if err != nil {
					errs <- err
					return
				}
				record(res)
			}
		}(w, cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The metered tenant spends its burst, then sheds.
	for i := 0; i <= noisyBurst; i++ {
		res, err := noisy.Dispatch(ctx, corpus.Requests[i].ID, 0.05, obj, 0)
		if i < noisyBurst {
			if err != nil {
				t.Fatalf("noisy dispatch %d: %v", i, err)
			}
			record(res)
			continue
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("noisy dispatch past its burst: %v, want a 429", err)
		}
	}

	snap, err := anon.Telemetry(ctx)
	if err != nil {
		t.Fatal(err)
	}
	adm, err := anon.Admission(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	var escalations int64
	for _, tr := range snap.Tiers {
		escalations += tr.Escalations
	}
	if snap.Failures != 0 || escalations == 0 || adm.ShedRate == 0 || len(snap.Tenants) != 2 {
		t.Fatalf("traffic missed its shape: failures %d, escalations %d, rate sheds %d, tenants %d",
			snap.Failures, escalations, adm.ShedRate, len(snap.Tenants))
	}

	// Prometheus against GET /telemetry, sample for sample.
	want := map[string]float64{
		"toltiers_dispatch_requests_total": float64(snap.Requests),
		"toltiers_dispatch_failures_total": float64(snap.Failures),
	}
	for _, tr := range snap.Tiers {
		l := fmt.Sprintf("{tier=%q}", tr.Tier)
		want["toltiers_tier_requests_total"+l] = float64(tr.Requests)
		want["toltiers_tier_escalations_total"+l] = float64(tr.Escalations)
		want["toltiers_tier_hedges_total"+l] = float64(tr.Hedges)
		want["toltiers_tier_deadline_misses_total"+l] = float64(tr.DeadlineMisses)
		want["toltiers_tier_escalation_failures_total"+l] = float64(tr.EscalationFailures)
		want["toltiers_tier_graded_total"+l] = float64(tr.Graded)
		want["toltiers_tier_mean_error"+l] = tr.MeanErr
		want["toltiers_tier_mean_latency_ms"+l] = tr.MeanLatencyMS
		want["toltiers_tier_max_latency_ms"+l] = tr.MaxLatencyMS
		want["toltiers_tier_mean_cost_usd"+l] = tr.MeanCostUSD
	}
	for _, be := range snap.Backends {
		l := fmt.Sprintf("{backend=%q}", be.Backend)
		want["toltiers_backend_invocations_total"+l] = float64(be.Invocations)
		want["toltiers_backend_mean_latency_ms"+l] = be.MeanLatencyMS
		want["toltiers_backend_p95_latency_ms"+l] = be.P95LatencyMS
		want["toltiers_backend_invocation_usd_total"+l] = be.InvocationUSD
		want["toltiers_backend_iaas_usd_total"+l] = be.IaaSUSD
	}
	got := promSamples(t, string(body), "toltiers_dispatch_", "toltiers_tier_", "toltiers_backend_")
	if len(got) != len(want) {
		t.Fatalf("prometheus serves %d dispatch/tier/backend samples, /telemetry has %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("prometheus %s = %v (present %v), /telemetry says %v", k, g, ok, v)
		}
	}

	// Prometheus against GET /admission.
	got = promSamples(t, string(body), "toltiers_admitted_total", "toltiers_shed_total")
	for k, v := range map[string]int64{
		"toltiers_admitted_total":               adm.Admitted,
		`toltiers_shed_total{cause="rate"}`:     adm.ShedRate,
		`toltiers_shed_total{cause="capacity"}`: adm.ShedCapacity,
		`toltiers_shed_total{cause="deadline"}`: adm.ShedDeadline,
	} {
		if g, ok := got[k]; !ok || g != float64(v) {
			t.Fatalf("prometheus %s = %v (present %v), /admission says %d", k, g, ok, v)
		}
	}

	// GET /telemetry against the answers.
	if len(snap.Tiers) != len(served) {
		t.Fatalf("/telemetry has %d tiers, answers came from %d", len(snap.Tiers), len(served))
	}
	for _, tr := range snap.Tiers {
		ans := served[tr.Tier]
		if int64(len(ans)) != tr.Requests {
			t.Fatalf("tier %s: /telemetry counts %d requests, %d answered 200", tr.Tier, tr.Requests, len(ans))
		}
		var lat, cost float64
		for _, a := range ans {
			lat += a.latencyMS
			cost += a.costUSD
		}
		n := float64(len(ans))
		if !relClose(tr.MeanLatencyMS, lat/n) || !relClose(tr.MeanCostUSD, cost/n) {
			t.Fatalf("tier %s: /telemetry means latency %v cost %v, answers %v %v",
				tr.Tier, tr.MeanLatencyMS, tr.MeanCostUSD, lat/n, cost/n)
		}
	}
}

// relClose reports a and b equal within 1e-9 relative.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// promSamples parses a text exposition into sample → value, keeping
// the samples whose names start with one of the prefixes.
func promSamples(t *testing.T, body string, prefixes ...string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		keep := false
		for _, p := range prefixes {
			keep = keep || strings.HasPrefix(line, p)
		}
		if !keep {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("prometheus line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}
