package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/costmodel"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/vision"
)

var testMatrixOnce sync.Once
var testMatrix *profile.Matrix

func visionMatrix(t testing.TB) *profile.Matrix {
	t.Helper()
	testMatrixOnce.Do(func() {
		c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 300, Device: vision.GPU})
		testMatrix = profile.Build(c.Service, c.Requests)
	})
	return testMatrix
}

// TestDispatchMatchesSimulate pins the runtime's outcome arithmetic to
// the offline reference: dispatching any profiled request through
// replay backends reproduces Policy.Simulate on that row exactly, for
// every policy kind.
func TestDispatchMatchesSimulate(t *testing.T) {
	m := visionMatrix(t)
	nv := m.NumVersions()
	d := New(NewReplayBackends(m), Options{DisableHedging: true})
	reqs := ReplayRequests(m)
	policies := []ensemble.Policy{
		{Kind: ensemble.Single, Primary: 0},
		{Kind: ensemble.Single, Primary: nv - 1},
		{Kind: ensemble.Failover, Primary: 0, Secondary: nv - 1, Threshold: 0.5},
		{Kind: ensemble.Failover, Primary: 0, Secondary: nv - 1, Threshold: 0.5, PickBest: true},
		{Kind: ensemble.Concurrent, Primary: 0, Secondary: nv - 1, Threshold: 0.5},
		{Kind: ensemble.Concurrent, Primary: 1, Secondary: nv - 2, Threshold: 0.9, PickBest: true},
	}
	ctx := context.Background()
	for _, p := range policies {
		tk := Ticket{Tier: "test/" + p.String(), Policy: p}
		for i := 0; i < m.NumRequests(); i++ {
			want := p.Simulate(m.Row(i))
			got, err := d.Do(ctx, reqs[i], tk)
			if err != nil {
				t.Fatalf("%v row %d: %v", p, i, err)
			}
			if got.Err != want.Err || got.Latency != want.Latency ||
				got.InvCost != want.InvCost || got.IaaSCost != want.IaaSCost ||
				got.Escalated != want.Escalated {
				t.Fatalf("%v row %d: dispatch %+v != simulate %+v", p, i, got, want)
			}
			if got.Started != want.Started {
				t.Fatalf("%v row %d: started %d != %d", p, i, got.Started, want.Started)
			}
		}
	}
}

// TestDispatchTelemetry checks the per-tier and per-backend accounting
// of a dispatched batch: request/escalation counters, graded error
// streams, and billing totals match the summed outcomes.
func TestDispatchTelemetry(t *testing.T) {
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{DisableHedging: true})
	reqs := ReplayRequests(m)
	p := ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}
	tk := Ticket{Tier: TierKey("response-time", 0.05), Policy: p}

	var wantErrSum, wantInvSum float64
	var wantLatSum time.Duration
	escalations := 0
	n := 120
	for i := 0; i < n; i++ {
		o, err := d.Do(context.Background(), reqs[i], tk)
		if err != nil {
			t.Fatal(err)
		}
		wantErrSum += o.Err
		wantLatSum += o.Latency
		wantInvSum += o.InvCost
		if o.Escalated {
			escalations++
		}
	}
	meanErr, meanLat, graded := d.Telemetry().TierMeans(tk.Tier)
	if graded != n {
		t.Fatalf("graded = %d, want %d", graded, n)
	}
	if math.Abs(meanErr-wantErrSum/float64(n)) > 1e-12 {
		t.Fatalf("mean err %v, want %v", meanErr, wantErrSum/float64(n))
	}
	if diff := meanLat - wantLatSum/time.Duration(n); diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("mean latency %v, want %v", meanLat, wantLatSum/time.Duration(n))
	}

	snap := d.Snapshot()
	if snap.Requests != int64(n) {
		t.Fatalf("requests = %d", snap.Requests)
	}
	if len(snap.Tiers) != 1 || snap.Tiers[0].Tier != tk.Tier {
		t.Fatalf("tiers = %+v", snap.Tiers)
	}
	if snap.Tiers[0].Escalations != int64(escalations) {
		t.Fatalf("escalations = %d, want %d", snap.Tiers[0].Escalations, escalations)
	}
	if math.Abs(snap.Tiers[0].MeanCostUSD-wantInvSum/float64(n)) > 1e-12 {
		t.Fatalf("mean cost = %v", snap.Tiers[0].MeanCostUSD)
	}
	// The primary ran every request; the secondary only on escalation.
	pri, sec := snap.Backends[p.Primary], snap.Backends[p.Secondary]
	if pri.Invocations != int64(n) {
		t.Fatalf("primary invocations = %d", pri.Invocations)
	}
	if sec.Invocations != int64(escalations) {
		t.Fatalf("secondary invocations = %d, want %d", sec.Invocations, escalations)
	}
	// Billing totals across backends equal the summed outcome costs
	// (failover never prorates).
	gotInv := 0.0
	for _, b := range snap.Backends {
		gotInv += b.InvocationUSD
	}
	if math.Abs(gotInv-wantInvSum) > 1e-9 {
		t.Fatalf("billed %v, outcomes summed %v", gotInv, wantInvSum)
	}
	if b := d.Telemetry().Billing(p.Primary); b.Invocations != n {
		t.Fatalf("primary billing invocations = %d", b.Invocations)
	}
}

// stubBackend is a controllable backend for failure/limiter tests.
// When held is set, Invoke signals on it first: the call is then inside
// the backend, holding its limiter slot.
type stubBackend struct {
	name    string
	delay   time.Duration
	conf    float64
	failErr error
	held    chan<- struct{}
}

func (s *stubBackend) Name() string { return s.name }
func (s *stubBackend) Plan() costmodel.Plan {
	return costmodel.Plan{PerInvocation: 0.01, NodeHourly: 1}
}
func (s *stubBackend) Invoke(ctx context.Context, _ *service.Request) (Response, error) {
	if s.held != nil {
		s.held <- struct{}{}
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
	}
	if s.failErr != nil {
		return Response{}, s.failErr
	}
	return Response{
		Result:   service.Result{Confidence: s.conf, Latency: 10 * time.Millisecond, Class: 1},
		Err:      0.25,
		InvCost:  0.01,
		IaaSCost: 1e-6,
	}, nil
}

// TestDispatchEscalationDegrades checks resilience: a secondary that
// fails after the primary answered degrades to the primary's result and
// is surfaced in telemetry rather than failing the request.
func TestDispatchEscalationDegrades(t *testing.T) {
	pri := &stubBackend{name: "fast", conf: 0.1}
	sec := &stubBackend{name: "big", failErr: errors.New("boom")}
	d := New([]Backend{pri, sec}, Options{})
	tk := Ticket{Tier: "t", Policy: ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: 1, Threshold: 0.5}}
	o, err := d.Do(context.Background(), &service.Request{ID: 1}, tk)
	if err != nil {
		t.Fatal(err)
	}
	if o.Escalated || o.Backend != "fast" {
		t.Fatalf("outcome = %+v", o)
	}
	snap := d.Snapshot()
	if snap.Tiers[0].EscalationFailures != 1 {
		t.Fatalf("escalation failures = %d", snap.Tiers[0].EscalationFailures)
	}
	// A failed primary escalates unconditionally.
	pri.failErr = errors.New("down")
	sec.failErr = nil
	o, err = d.Do(context.Background(), &service.Request{ID: 1}, tk)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Escalated || o.Backend != "big" {
		t.Fatalf("rescue outcome = %+v", o)
	}
	// Both down fails the request and counts a failure.
	sec.failErr = errors.New("down too")
	if _, err = d.Do(context.Background(), &service.Request{ID: 1}, tk); err == nil {
		t.Fatal("want error with both backends down")
	}
	if snap = d.Snapshot(); snap.Failures != 1 {
		t.Fatalf("failures = %d", snap.Failures)
	}
}

// TestDispatchLimiter checks the per-backend concurrency cap: excess
// requests queue (and still succeed), and a cancelled context while
// queued surfaces as an error.
func TestDispatchLimiter(t *testing.T) {
	b := &stubBackend{name: "slow", conf: 1, delay: 30 * time.Millisecond}
	d := New([]Backend{b}, Options{MaxConcurrentPerBackend: 1})
	tk := Ticket{Tier: "t", Policy: ensemble.Policy{Kind: ensemble.Single, Primary: 0}}

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = d.Do(context.Background(), &service.Request{ID: i}, tk)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("queued request %d: %v", i, err)
		}
	}

	// Saturate the slot: the holder reports from inside the backend and
	// stays there until cancelled. Then time out while queued.
	held := make(chan struct{}, 1)
	b.delay, b.held = time.Hour, held
	hold, release := context.WithCancel(context.Background())
	defer release()
	go d.Do(hold, &service.Request{ID: 9}, tk) //nolint:errcheck // holds the slot
	<-held
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := d.Do(ctx, &service.Request{ID: 10}, tk)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "backend limiter") {
		t.Fatalf("err = %v, want the limiter's timeout", err)
	}
}

// TestDispatchHedging checks the deadline-aware hedge: once the latency
// trackers have history, a failover request whose budget is below
// p95(primary)+p95(secondary) fires both legs at once.
func TestDispatchHedging(t *testing.T) {
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{})
	reqs := ReplayRequests(m)
	p := ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}

	// Warm the trackers without any deadline. The warm-up runs the pair
	// concurrently so both backends accumulate latency history even if
	// the threshold rarely escalates.
	warm := Ticket{Tier: "warm", Policy: ensemble.Policy{
		Kind: ensemble.Concurrent, Primary: p.Primary, Secondary: p.Secondary, Threshold: p.Threshold,
	}}
	for i := 0; i < 64; i++ {
		if _, err := d.Do(context.Background(), reqs[i], warm); err != nil {
			t.Fatal(err)
		}
	}
	pp, sp := d.P95(p.Primary), d.P95(p.Secondary)
	if math.IsNaN(pp) || math.IsNaN(sp) {
		t.Fatal("trackers not warmed")
	}

	// A budget the sequential path cannot make (below the p95 sum, and
	// below even the primary alone) must hedge every request.
	tight := Ticket{Tier: "tight", Policy: p, Budget: time.Duration(pp+sp) / 4}
	hedged := 0
	for i := 0; i < 40; i++ {
		o, err := d.Do(context.Background(), reqs[i], tight)
		if err != nil {
			t.Fatal(err)
		}
		if o.Hedged {
			hedged++
			if o.Started != 2 {
				t.Fatalf("hedged outcome started %d backends", o.Started)
			}
		}
	}
	if hedged != 40 {
		t.Fatalf("hedged %d of 40 under an impossible budget", hedged)
	}
	snap := d.Snapshot()
	for _, tier := range snap.Tiers {
		if tier.Tier == "tight" && tier.Hedges != 40 {
			t.Fatalf("tier telemetry hedges = %d", tier.Hedges)
		}
		if tier.Tier == "warm" && tier.Hedges != 0 {
			t.Fatalf("warm tier hedged %d times", tier.Hedges)
		}
	}

	// A generous budget keeps failover sequential.
	loose := Ticket{Tier: "loose", Policy: p, Budget: time.Duration((pp + sp) * 16)}
	o, err := d.Do(context.Background(), reqs[0], loose)
	if err != nil {
		t.Fatal(err)
	}
	if o.Hedged {
		t.Fatal("hedged under a generous budget")
	}
}

// TestDispatchHedgeCancelsSecondary checks the point of the hedge: a
// confident primary cancels the in-flight secondary, so the request
// returns at the primary's pace instead of max(latencies), and the
// aborted secondary is billed from its plan as a started invocation.
func TestDispatchHedgeCancelsSecondary(t *testing.T) {
	pri := &stubBackend{name: "fast", conf: 1, delay: 2 * time.Millisecond}
	slowDelay := 250 * time.Millisecond
	sec := &stubBackend{name: "slow", conf: 1, delay: slowDelay}
	d := New([]Backend{pri, sec}, Options{})
	p := ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: 1, Threshold: 0.5}

	// Warm both trackers past trackerMinSamples. The warm-up pays the
	// slow secondary's wall time; the hedged request below must not.
	sec.delay = 5 * time.Millisecond
	warm := Ticket{Tier: "warm", Policy: ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: 1, Threshold: 2}}
	for i := 0; i < trackerMinSamples; i++ {
		if _, err := d.Do(context.Background(), &service.Request{ID: i}, warm); err != nil {
			t.Fatal(err)
		}
	}
	sec.delay = slowDelay

	// Both stubs report 10ms service latency, so any budget under their
	// 20ms p95 sum forces the hedge.
	tk := Ticket{Tier: "hedge", Policy: p, Budget: 5 * time.Millisecond}
	start := time.Now()
	o, err := d.Do(context.Background(), &service.Request{ID: 99}, tk)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Hedged || o.Started != 2 || o.Backend != "fast" {
		t.Fatalf("outcome = %+v", o)
	}
	if wall >= slowDelay {
		t.Fatalf("hedged dispatch took %v — waited for the cancelled secondary (%v)", wall, slowDelay)
	}
	// Both invocations billed: the aborted secondary from its plan.
	if want := 2 * 0.01; math.Abs(o.InvCost-want) > 1e-12 {
		t.Fatalf("hedged invocation cost %v, want %v", o.InvCost, want)
	}
}

// TestDispatchDeadlineExceeded checks that overrunning a budget is
// marked on the outcome and counted per tier.
func TestDispatchDeadlineExceeded(t *testing.T) {
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{DisableHedging: true})
	reqs := ReplayRequests(m)
	tk := Ticket{
		Tier:   "dl",
		Policy: ensemble.Policy{Kind: ensemble.Single, Primary: m.NumVersions() - 1},
		Budget: time.Nanosecond,
	}
	o, err := d.Do(context.Background(), reqs[0], tk)
	if err != nil {
		t.Fatal(err)
	}
	if !o.DeadlineExceeded {
		t.Fatal("1ns budget not marked exceeded")
	}
	if snap := d.Snapshot(); snap.Tiers[0].DeadlineMisses != 1 {
		t.Fatalf("deadline misses = %d", snap.Tiers[0].DeadlineMisses)
	}
}

// TestReplayBackend checks the replay substrate itself: unknown IDs
// error, known IDs reproduce the profiled cell, and the reconstructed
// plan matches the profiled costs.
func TestReplayBackend(t *testing.T) {
	m := visionMatrix(t)
	backends := NewReplayBackends(m)
	if len(backends) != m.NumVersions() {
		t.Fatalf("%d backends for %d versions", len(backends), m.NumVersions())
	}
	reqs := ReplayRequests(m)
	for v, b := range backends {
		resp, err := b.Invoke(context.Background(), reqs[7])
		if err != nil {
			t.Fatal(err)
		}
		cell := m.At(7, v)
		if resp.Result.Confidence != cell.Confidence || resp.Result.Latency != cell.Latency ||
			resp.Err != cell.Err || resp.InvCost != cell.InvCost || resp.IaaSCost != cell.IaaSCost {
			t.Fatalf("version %d: replay %+v != cell %+v", v, resp, cell)
		}
		if got := b.Plan().InvocationCost(); math.Abs(got-cell.InvCost) > 1e-12 {
			t.Fatalf("version %d: plan invocation cost %v != %v", v, got, cell.InvCost)
		}
	}
	if _, err := backends[0].Invoke(context.Background(), &service.Request{ID: 1 << 30}); err == nil {
		t.Fatal("unknown request id accepted")
	}
}

// TestServiceBackendMatchesExecute pins the live adapter to
// Policy.Execute: dispatching through ServiceBackends reproduces the
// legacy execution path's outcome for the same request.
func TestServiceBackendMatchesExecute(t *testing.T) {
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 40, Device: vision.GPU})
	d := New(NewServiceBackends(c.Service), Options{DisableHedging: true})
	for _, p := range []ensemble.Policy{
		{Kind: ensemble.Single, Primary: 0},
		{Kind: ensemble.Failover, Primary: 0, Secondary: len(c.Service.Versions) - 1, Threshold: 0.6},
		{Kind: ensemble.Concurrent, Primary: 0, Secondary: len(c.Service.Versions) - 1, Threshold: 0.6, PickBest: true},
	} {
		tk := Ticket{Tier: "live/" + p.String(), Policy: p}
		for i := 0; i < 25; i++ {
			req := c.Requests[i]
			_, want := p.Execute(c.Service, req)
			got, err := d.Do(context.Background(), req, tk)
			if err != nil {
				t.Fatal(err)
			}
			// IaaS credit rounding differs from Execute by one ulp (the
			// dispatcher prorates like Simulate, the bit-exact contract);
			// everything else must match exactly.
			if got.Err != want.Err || got.Latency != want.Latency ||
				got.InvCost != want.InvCost || got.Escalated != want.Escalated ||
				math.Abs(got.IaaSCost-want.IaaSCost) > 1e-12*math.Max(1, want.IaaSCost) {
				t.Fatalf("%v req %d: dispatch %+v != execute %+v", p, i, got, want)
			}
		}
	}
}

// TestLatencyTracker exercises the sliding-window quantile estimate.
func TestLatencyTracker(t *testing.T) {
	tr := newLatencyTracker(0.95)
	if !math.IsNaN(tr.estimate()) {
		t.Fatal("estimate before observations")
	}
	// A handful of observations — including a cold-start outlier — must
	// not arm the estimate yet.
	tr.observe(5e8)
	for i := 0; i < trackerMinSamples-2; i++ {
		tr.observe(1000)
	}
	if !math.IsNaN(tr.estimate()) {
		t.Fatalf("estimate armed after %d observations", trackerMinSamples-1)
	}
	tr.observe(1000)
	if math.IsNaN(tr.estimate()) {
		t.Fatalf("estimate not armed at %d observations", trackerMinSamples)
	}
	for i := 0; i < 200; i++ {
		tr.observe(float64(i % 100))
	}
	got := tr.estimate()
	if got < 90 || got > 99 {
		t.Fatalf("p95 of 0..99 window = %v", got)
	}
}

// TestDispatchRejectsBadPolicy validates tickets up front.
func TestDispatchRejectsBadPolicy(t *testing.T) {
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{})
	bad := Ticket{Tier: "bad", Policy: ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: 99, Threshold: 0.5}}
	if _, err := d.Do(context.Background(), ReplayRequests(m)[0], bad); err == nil {
		t.Fatal("out-of-range secondary accepted")
	}
}

// TestTierKey pins the telemetry key format the server and clients use:
// byte-identical to %s/%g, on the miss that interns a key and on the
// hit that reads it back.
func TestTierKey(t *testing.T) {
	if got := TierKey("response-time", 0.05); got != "response-time/0.05" {
		t.Fatalf("key = %q", got)
	}
	if got := TierKey("cost", 0); got != "cost/0" {
		t.Fatalf("key = %q", got)
	}
	for _, c := range []struct {
		objective string
		tolerance float64
	}{
		{"cost", 0},
		{"cost", math.Copysign(0, -1)},
		{"cost", math.NaN()},
		{"cost", math.Inf(1)},
		{"cost", math.Inf(-1)},
		{"cost", 5e-324},
		{"cost", 0.1 + 0.2},
		{"cost", 1e21},
		{"response-time", 0.05},
		{"a/b%d ü—東", 0.3},
		{"", 1},
	} {
		want := fmt.Sprintf("%s/%g", c.objective, c.tolerance)
		for pass := 0; pass < 2; pass++ {
			if got := TierKey(c.objective, c.tolerance); got != want {
				t.Fatalf("TierKey(%q, %v) pass %d = %q, want %q", c.objective, c.tolerance, pass, got, want)
			}
		}
	}
}

// FuzzTierKey checks the interned key against fmt on every input, on
// the first call and again on the (cached or over-cap) second.
func FuzzTierKey(f *testing.F) {
	f.Add("response-time", 0.05)
	f.Add("cost", math.Copysign(0, -1))
	f.Add("a/b%d ü", math.NaN())
	f.Add("cost", math.Inf(-1))
	f.Fuzz(func(t *testing.T, objective string, tolerance float64) {
		want := fmt.Sprintf("%s/%g", objective, tolerance)
		for pass := 0; pass < 2; pass++ {
			if got := TierKey(objective, tolerance); got != want {
				t.Fatalf("TierKey(%q, %v) pass %d = %q, want %q", objective, tolerance, pass, got, want)
			}
		}
	})
}

// TestTierKeyConcurrent renders overlapping key sets from 16 goroutines
// at once; under -race this checks the copy-on-write publication.
func TestTierKeyConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := (g*13 + j) % 240
				obj, tol := "concurrent", float64(k)/1000
				if want := fmt.Sprintf("%s/%g", obj, tol); TierKey(obj, tol) != want {
					errs <- want
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for want := range errs {
		t.Errorf("concurrent TierKey diverged from %q", want)
	}
}

// TestTierKeyBound renders more distinct keys than the table holds:
// every result stays correct and the table stops growing at the bound.
func TestTierKeyBound(t *testing.T) {
	saved := tierKeys.Load()
	tierKeys.Store(&map[tierKeyID]string{})
	t.Cleanup(func() { tierKeys.Store(saved) })
	for i := 0; i < tierKeyCap+100; i++ {
		tol := float64(i) / 7
		want := fmt.Sprintf("%s/%g", "bound", tol)
		for pass := 0; pass < 2; pass++ {
			if got := TierKey("bound", tol); got != want {
				t.Fatalf("key %d pass %d = %q, want %q", i, pass, got, want)
			}
		}
	}
	if n := len(*tierKeys.Load()); n != tierKeyCap {
		t.Fatalf("table holds %d keys, bound %d", n, tierKeyCap)
	}
}
