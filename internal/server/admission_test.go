package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/vision"
)

// admissionServer builds a serving node with the given admission
// configuration over the small vision fixture.
func admissionServer(t testing.TB, acfg admit.Config) (*Server, *httptest.Server, *dataset.VisionCorpus) {
	t.Helper()
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 240, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	cfg := rulegen.DefaultConfig()
	cfg.MinTrials = 5
	cfg.MaxTrials = 24
	cfg.ThresholdPoints = 4
	cfg.IncludePickBest = false
	g := rulegen.New(m, nil, cfg)
	tols := []float64{0, 0.01, 0.05, 0.10}
	reg := tiers.NewRegistry(c.Service,
		g.Generate(tols, rulegen.MinimizeLatency),
		g.Generate(tols, rulegen.MinimizeCost))
	srv := NewWithConfig(reg, c.Requests, Config{Matrix: m, Admission: acfg})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, c
}

func TestAdmissionDisabledByDefault(t *testing.T) {
	ts, corpus := testServer(t)
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	st, err := cl.Admission(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "disabled" {
		t.Fatalf("state = %q, want disabled", st.State)
	}
	// A disabled layer must not tax or reject anything.
	if _, err := cl.Compute(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionConfigValidation(t *testing.T) {
	ts, _ := testServer(t)
	bodies := []string{
		`{"tenants": {"x": {"rate_per_sec": -1}}}`,
		`{"tenants": {"x": {"rate_per_sec": 1, "burst": -1}}}`,
		`not json`,
	}
	// Every numeric field but shed_margin, whose negative values
	// disable deadline shedding.
	for _, field := range []string{
		"max_in_flight", "priority_reserve", "priority_tolerance", "default_rate_per_sec",
		"default_burst", "brownout_tolerance", "brownout_engage_shed", "brownout_release_shed",
		"brownout_engage_intervals", "brownout_release_intervals", "brownout_interval_ms",
		"retry_after_ms",
	} {
		bodies = append(bodies, `{"`+field+`": -1}`)
	}
	// Sub-nanosecond negatives round to a zero Duration, so the sign is
	// checked on the wire value.
	for _, field := range []string{"brownout_interval_ms", "retry_after_ms"} {
		bodies = append(bodies, `{"`+field+`": -1e-7}`)
	}
	for _, body := range bodies {
		resp, err := ts.Client().Post(ts.URL+"/admission/config", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("config %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestAdmissionRateShedWireFormat(t *testing.T) {
	_, ts, corpus := admissionServer(t, admit.Config{
		Enabled:     true,
		DefaultRate: admit.Rate{PerSec: 0.001, Burst: 1},
	})
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// The single burst token admits one request...
	if _, err := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, 0); err != nil {
		t.Fatal(err)
	}
	// ...the next is a 429 with both Retry-After forms.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/dispatch",
		strings.NewReader(`{"request_id": `+strconv.Itoa(corpus.Requests[0].ID)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Tolerance", "0.05")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q: whole positive seconds required", resp.Header.Get("Retry-After"))
	}
	ms, err := strconv.ParseFloat(resp.Header.Get("X-Toltiers-Retry-After-MS"), 64)
	if err != nil || ms <= 0 {
		t.Fatalf("X-Toltiers-Retry-After-MS %q invalid", resp.Header.Get("X-Toltiers-Retry-After-MS"))
	}

	// The client SDK surfaces the precise hint on its APIError.
	_, derr := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, 0)
	apiErr, ok := derr.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429 APIError, got %v", derr)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("APIError.RetryAfter = %v, want the server hint", apiErr.RetryAfter)
	}

	// /compute is gated by the same bucket.
	if _, cerr := cl.Compute(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency); cerr == nil {
		t.Fatal("compute slipped past the drained bucket")
	}
}

func TestAdmissionDeadlineShed(t *testing.T) {
	_, ts, corpus := admissionServer(t, admit.Config{Enabled: true})
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// Cold trackers: no floor estimate, nothing sheds even on a tiny
	// budget (the dispatcher itself marks the overrun).
	if _, err := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, time.Microsecond); err != nil {
		t.Fatalf("cold-floor dispatch shed: %v", err)
	}
	// Warm the primary's latency window past the tracker minimum.
	for i := 0; i < 16; i++ {
		if _, err := cl.Dispatch(ctx, corpus.Requests[i].ID, 0.05, rulegen.MinimizeLatency, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A 1µs budget is provably below the multi-millisecond floor: the
	// request is rejected before leasing any backend slot.
	_, err := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, time.Microsecond)
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 deadline shed, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "shed-deadline") {
		t.Fatalf("shed class missing from %q", apiErr.Message)
	}
	// A realistic budget still dispatches.
	if _, err := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, time.Second); err != nil {
		t.Fatalf("feasible budget shed: %v", err)
	}
}

func TestAdmissionCapacityShedAndPriority(t *testing.T) {
	srv, ts, corpus := admissionServer(t, admit.Config{
		Enabled:     true,
		MaxInFlight: 2,
		// Normalized PriorityReserve = 1: one slot only 1%-tier traffic
		// may use.
	})
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// Hold the single bulk slot directly (the handler path releases its
	// slot before responding, so saturation is pinned white-box).
	hold := srv.Admission().Admit(time.Now(), "", 0.10, 0, math.NaN())
	if hold.Verdict != admit.Accept {
		t.Fatalf("setup hold: %v", hold.Verdict)
	}
	defer srv.Admission().Done(hold)

	// Bulk traffic is out of slots: 503.
	_, err := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.10, rulegen.MinimizeLatency, 0)
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 capacity shed, got %v", err)
	}
	// The 1%-tier reserve still admits.
	if _, err := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.01, rulegen.MinimizeLatency, 0); err != nil {
		t.Fatalf("priority request shed at bulk saturation: %v", err)
	}
}

// TestBrownoutDowngradeOverHTTP engages brownout and verifies the wire
// behaviour: tolerant dispatches re-resolve at the brownout tier and
// answer Downgraded with the cheaper tier's policy, priority dispatches
// pass untouched, and the batch path marks every item.
func TestBrownoutDowngradeOverHTTP(t *testing.T) {
	srv, ts, corpus := admissionServer(t, admit.Config{
		Enabled:         true,
		MaxInFlight:     1,
		Brownout:        true,
		EngageIntervals: 1,
		Interval:        10 * time.Second, // one engage fold, then stay put for the test body
	})
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// Engage: saturate one interval, then roll past it.
	adm := srv.Admission()
	now := time.Now()
	hold := adm.Admit(now, "", 0.05, 0, math.NaN())
	if hold.Verdict != admit.Accept {
		t.Fatalf("hold: %v", hold.Verdict)
	}
	if d := adm.Admit(now, "", 0.05, 0, math.NaN()); d.Verdict != admit.ShedCapacity {
		t.Fatalf("saturation shed: %v", d.Verdict)
	}
	if d := adm.Admit(now.Add(10*time.Second+time.Millisecond), "", 0.05, 0, math.NaN()); d.Verdict != admit.ShedCapacity {
		t.Fatalf("engaging admit: %v", d.Verdict)
	}
	if !adm.Engaged() {
		t.Fatal("brownout not engaged")
	}
	adm.Done(hold)

	// Tolerant dispatch: served at the 10% tier, marked Downgraded.
	res, err := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Downgraded || res.Tier != 0.10 {
		t.Fatalf("browned-out dispatch: downgraded=%v tier=%v, want true/0.10", res.Downgraded, res.Tier)
	}
	// Priority dispatch: untouched.
	res, err = cl.Dispatch(ctx, corpus.Requests[0].ID, 0.01, rulegen.MinimizeLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Downgraded || res.Tier != 0.01 {
		t.Fatalf("priority dispatch touched by brownout: %+v", res)
	}
	// Requests already at the brownout tier: admitted, not marked.
	res, err = cl.Dispatch(ctx, corpus.Requests[0].ID, 0.10, rulegen.MinimizeLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Downgraded {
		t.Fatalf("10%%-tier request marked downgraded: %+v", res)
	}
	// Batch path: every item carries the mark.
	ids := []int{corpus.Requests[0].ID, corpus.Requests[1].ID, corpus.Requests[2].ID}
	bres, err := cl.DispatchBatch(ctx, ids, 0.05, rulegen.MinimizeLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range bres.Items {
		if item.Error != "" || !item.Downgraded || item.Tier != 0.10 {
			t.Fatalf("batch item %d: %+v", i, item)
		}
	}
	st, err := cl.Admission(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "brownout" || st.Downgraded == 0 {
		t.Fatalf("status %+v, want brownout state with downgrades", st)
	}
}

// TestAdmissionRuntimeRetuning drives the POST /admission/config loop:
// enable a tenant limit at runtime, watch it bite per tenant, then
// disable the layer again — all without restarting the node.
func TestAdmissionRuntimeRetuning(t *testing.T) {
	_, ts, corpus := admissionServer(t, admit.Config{})
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	st, err := cl.SetAdmissionConfig(ctx, api.AdmissionConfig{
		Enabled: true,
		Tenants: map[string]api.Rate{"metered": {PerSec: 0.001, Burst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "normal" {
		t.Fatalf("state = %q after enable", st.State)
	}

	metered := cl.WithTenant("metered")
	if _, err := metered.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := metered.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, 0); err == nil {
		t.Fatal("metered tenant not limited")
	}
	// Other tenants ride the (unlimited) default bucket.
	if _, err := cl.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, 0); err != nil {
		t.Fatalf("default tenant limited: %v", err)
	}

	st, err = cl.Admission(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var meteredRow *api.TenantAdmission
	for i := range st.Tenants {
		if st.Tenants[i].Tenant == "metered" {
			meteredRow = &st.Tenants[i]
		}
	}
	if meteredRow == nil || meteredRow.Admitted != 1 || meteredRow.ShedRate != 1 {
		t.Fatalf("metered tenant row: %+v", st.Tenants)
	}

	// Disable at runtime: everything admits again.
	if _, err := cl.SetAdmissionConfig(ctx, api.AdmissionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := metered.Dispatch(ctx, corpus.Requests[0].ID, 0.05, rulegen.MinimizeLatency, 0); err != nil {
		t.Fatalf("disabled layer still shedding: %v", err)
	}
}
