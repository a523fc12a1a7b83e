package coalesce

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/ensemble"
)

// TestCoalescedEquivalence is the tentpole's correctness pin: for every
// policy kind — including the deadline-hedged failover path — a request
// dispatched through coalescing windows returns the bit-identical
// outcome (result, error grade, latency, billing, escalation flags,
// backend) it would get from the serial Dispatcher.Do path, and the
// coalesced dispatcher's telemetry and billing reconcile with a serial
// twin fed the same traffic.
//
// Hedging is made order-independent by a 1 ns budget: once both legs'
// latency trackers have history, pp+sp > budget always holds, so every
// failover dispatch hedges regardless of the concurrent interleaving —
// and replay backends are instant, so the hedged arithmetic itself is
// deterministic.
//
// Eight workers are no crowd against MaxBatch 16, so one is faked: every
// request parks, no window can fill, and each ends on its timer with all
// eight workers inside — one flush after another, which the
// order-sensitive latency tracker behind the hedge decision needs to
// stay bit-exact with the serial twin.
func TestCoalescedEquivalence(t *testing.T) {
	m := visionMatrix(t)
	nv := m.NumVersions()
	reqs := dispatch.ReplayRequests(m)
	policies := []ensemble.Policy{
		{Kind: ensemble.Single, Primary: 0},
		{Kind: ensemble.Failover, Primary: 0, Secondary: nv - 1, Threshold: 0.5},
		{Kind: ensemble.Failover, Primary: 0, Secondary: nv - 1, Threshold: 0.5, PickBest: true},
		{Kind: ensemble.Concurrent, Primary: 0, Secondary: nv - 1, Threshold: 0.5},
		{Kind: ensemble.Concurrent, Primary: 1, Secondary: nv - 2, Threshold: 0.9, PickBest: true},
	}
	for _, hedged := range []bool{false, true} {
		for _, p := range policies {
			p := p
			name := p.String()
			if hedged {
				name = "hedged_" + name
			}
			t.Run(name, func(t *testing.T) {
				serial := dispatch.New(dispatch.NewReplayBackends(m), dispatch.Options{DisableHedging: !hedged})
				twin := dispatch.New(dispatch.NewReplayBackends(m), dispatch.Options{DisableHedging: !hedged})
				c := New(twin, Options{MaxBatch: 16, Window: minWindow})
				defer fakeCrowd(c)()

				tk := dispatch.Ticket{Tier: "equiv/" + p.String(), Tenant: "equiv", Policy: p}
				if hedged {
					tk.Budget = time.Nanosecond
				}
				ctx := context.Background()

				if hedged && p.Kind != ensemble.Single {
					// (A Single policy has no secondary and never hedges.)
					// Warm both legs' latency trackers identically on both
					// dispatchers so the hedge decision is armed (and
					// identical) before the measured traffic starts.
					warm := dispatch.Ticket{Tier: "warm/" + p.String(),
						Policy: ensemble.Policy{Kind: ensemble.Concurrent, Primary: p.Primary, Secondary: p.Secondary, Threshold: 0.5}}
					for i := 0; i < 8; i++ {
						if _, err := serial.Do(ctx, reqs[i], warm); err != nil {
							t.Fatal(err)
						}
						if _, err := twin.Do(ctx, reqs[i], warm); err != nil {
							t.Fatal(err)
						}
					}
				}

				n := m.NumRequests()
				want := make([]dispatch.Outcome, n)
				for i := 0; i < n; i++ {
					var err error
					if want[i], err = serial.Do(ctx, reqs[i], tk); err != nil {
						t.Fatal(err)
					}
				}

				got := make([]dispatch.Outcome, n)
				gotErr := make([]error, n)
				var wg sync.WaitGroup
				idx := make(chan int)
				for w := 0; w < 8; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := range idx {
							got[i], _, gotErr[i] = c.Do(ctx, reqs[i], tk)
						}
					}()
				}
				for i := 0; i < n; i++ {
					idx <- i
				}
				close(idx)
				wg.Wait()

				for i := 0; i < n; i++ {
					if gotErr[i] != nil {
						t.Fatalf("request %d: %v", i, gotErr[i])
					}
					if !sameOutcome(got[i], want[i]) {
						t.Fatalf("request %d diverged:\ncoalesced %+v\nserial    %+v", i, got[i], want[i])
					}
				}
				if st := c.Stats(); st.Coalesced != int64(n) || st.Windows == 0 || st.Bypassed != 0 || st.Shed != 0 || st.Left != 0 {
					t.Fatalf("stats = %+v: want all %d requests delivered by windows, exactly once", st, n)
				}
				compareTelemetry(t, twin.Snapshot(), serial.Snapshot())
				compareTenant(t, twin.TenantSnapshot("equiv"), serial.TenantSnapshot("equiv"))
			})
		}
	}
}

// near reports float equality up to summation-order rounding: the
// coalesced path commits telemetry per batch, so per-tier sums
// accumulate in a different order than the serial twin's.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// compareTelemetry reconciles two dispatchers' snapshots: identical
// counters, and float accumulations equal up to summation order.
// Backend P95 is skipped — the quantile tracker is order-sensitive by
// construction.
func compareTelemetry(t *testing.T, got, want api.TelemetrySnapshot) {
	t.Helper()
	if got.Requests != want.Requests || got.Failures != want.Failures {
		t.Fatalf("requests/failures %d/%d, serial %d/%d", got.Requests, got.Failures, want.Requests, want.Failures)
	}
	if len(got.Tiers) != len(want.Tiers) {
		t.Fatalf("tier sets differ: %d vs %d", len(got.Tiers), len(want.Tiers))
	}
	for i, g := range got.Tiers {
		w := want.Tiers[i]
		if g.Tier != w.Tier || g.Requests != w.Requests || g.Graded != w.Graded ||
			g.Escalations != w.Escalations || g.Hedges != w.Hedges ||
			g.DeadlineMisses != w.DeadlineMisses || g.EscalationFailures != w.EscalationFailures {
			t.Fatalf("tier %s counters diverged:\ncoalesced %+v\nserial    %+v", g.Tier, g, w)
		}
		if !near(g.MeanErr, w.MeanErr) || !near(g.MeanLatencyMS, w.MeanLatencyMS) ||
			!near(g.MeanCostUSD, w.MeanCostUSD) || g.MaxLatencyMS != w.MaxLatencyMS {
			t.Fatalf("tier %s means diverged:\ncoalesced %+v\nserial    %+v", g.Tier, g, w)
		}
	}
	for i, g := range got.Backends {
		w := want.Backends[i]
		if g.Backend != w.Backend || g.Invocations != w.Invocations {
			t.Fatalf("backend %s invocations %d, serial %d", g.Backend, g.Invocations, w.Invocations)
		}
		if !near(g.InvocationUSD, w.InvocationUSD) || !near(g.IaaSUSD, w.IaaSUSD) {
			t.Fatalf("backend %s billing %v/%v, serial %v/%v — coalescing changed billing",
				g.Backend, g.InvocationUSD, g.IaaSUSD, w.InvocationUSD, w.IaaSUSD)
		}
	}
}

// compareTenant reconciles one tenant's partition across the two
// dispatchers.
func compareTenant(t *testing.T, got, want api.TenantTelemetry) {
	t.Helper()
	if got.Requests != want.Requests || got.Failures != want.Failures {
		t.Fatalf("tenant partition %d/%d, serial %d/%d", got.Requests, got.Failures, want.Requests, want.Failures)
	}
	if len(got.Tiers) != len(want.Tiers) {
		t.Fatalf("tenant tier sets differ: %d vs %d", len(got.Tiers), len(want.Tiers))
	}
	for i, g := range got.Tiers {
		w := want.Tiers[i]
		if g.Tier != w.Tier || g.Requests != w.Requests || g.Graded != w.Graded || !near(g.MeanErr, w.MeanErr) {
			t.Fatalf("tenant tier %s diverged:\ncoalesced %+v\nserial    %+v", g.Tier, g, w)
		}
	}
}
