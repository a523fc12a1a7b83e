package coalesce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/ensemble"
)

// TestCoalesceReconciliation hammers the coalescer from many goroutines
// across three tenants and two tiers, with a gate that sheds every
// fifth flush and a caller that cancels every seventh request
// mid-window, then reconciles every ledger in sight. Under `go test
// -race` (a CI job) this is the proof that the window state machine
// neither loses nor double-delivers a waiter:
//
//   - per tenant, sent = graded + shed + cancelled (every Do returned
//     exactly once, classified exactly once);
//   - per tenant, the dispatcher's telemetry partition saw exactly the
//     graded requests (shed traffic and waiters that left their window
//     never dispatch), plus as failures the few cancelled ones whose
//     context died inside a solo dispatch, as on the serial path;
//   - globally, the snapshot equals the sum of the tenant partitions;
//   - the coalescer's own counters balance: bypassed + coalesced =
//     graded + shed + those failures, and every cancellation is one of
//     three things: refused at Do's entry check, a departure from a
//     window (Left), or one of those failures.
func TestCoalesceReconciliation(t *testing.T) {
	m := visionMatrix(t)
	d := dispatch.New(dispatch.NewReplayBackends(m), dispatch.Options{DisableHedging: true})
	reqs := dispatch.ReplayRequests(m)
	nv := m.NumVersions()

	errShed := errors.New("gate shed")
	var flushSeq atomic.Int64
	gate := func(n int, tk dispatch.Ticket) (Grant, error) {
		if flushSeq.Add(1)%5 == 0 {
			return Grant{}, errShed
		}
		return Grant{Ticket: tk}, nil
	}
	// Instant backends on a few cores never put MaxBatch callers inside
	// Do at once, so the first half of the run has a faked crowd: every
	// request parks, and windows end by size, by timer and by
	// cancellation. Worker 0 sends the phantoms home at its midpoint:
	// from there the parked workers are the crowd, and it thins into
	// drains and bypasses as they finish.
	c := New(d, Options{MaxBatch: 4, Window: minWindow, Gate: gate})
	leave := fakeCrowd(c)

	tenants := []string{"acme", "blue", "crab"}
	tickets := []dispatch.Ticket{
		{Tier: "race/0.05", Policy: ensemble.Policy{Kind: ensemble.Single, Primary: 0}},
		{Tier: "race/0.01", Policy: ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: nv - 1, Threshold: 0.5}},
	}

	const (
		workers = 8
		perWork = 300
	)
	type tally struct {
		sent, graded, shed, cancelled int64
		refused                       int64 // cancelled before Do's entry check
	}
	tallies := make([]map[string]*tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tal := make(map[string]*tally, len(tenants))
		for _, tn := range tenants {
			tal[tn] = &tally{}
		}
		tallies[w] = tal
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWork; i++ {
				if w == 0 && i == perWork/2 {
					leave()
				}
				tenant := tenants[(w+i)%len(tenants)]
				tk := tickets[(w+i/3)%len(tickets)]
				tk.Tenant = tenant
				ctx := context.Background()
				var probe *entryCtx
				if i%7 == 6 {
					// Mid-window cancellation racing the flush: both
					// resolutions (removed with ctx error, or claimed and
					// delivered) are legal; losing the waiter is not.
					cctx, cancel := context.WithCancel(ctx)
					probe = &entryCtx{Context: cctx}
					ctx = probe
					go cancel()
					defer cancel()
				}
				tl := tal[tenant]
				tl.sent++
				_, _, err := c.Do(ctx, reqs[(w*perWork+i)%len(reqs)], tk)
				if probe != nil && probe.dead {
					tl.refused++
				}
				switch {
				case err == nil:
					tl.graded++
				case errors.Is(err, errShed):
					tl.shed++
				case errors.Is(err, context.Canceled):
					tl.cancelled++
				default:
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()

	agg := make(map[string]*tally, len(tenants))
	for _, tn := range tenants {
		agg[tn] = &tally{}
	}
	for _, tal := range tallies {
		for k, tl := range tal {
			a := agg[k]
			a.sent += tl.sent
			a.graded += tl.graded
			a.shed += tl.shed
			a.cancelled += tl.cancelled
			a.refused += tl.refused
		}
	}

	var gradedTotal, shedTotal, cancelledTotal, refusedTotal, partitionTotal int64
	for _, tn := range tenants {
		a := agg[tn]
		if a.sent != a.graded+a.shed+a.cancelled {
			t.Fatalf("%s: sent %d != graded %d + shed %d + cancelled %d — a Do was lost or returned twice",
				tn, a.sent, a.graded, a.shed, a.cancelled)
		}
		snap := d.TenantSnapshot(tn)
		if snap.Requests-snap.Failures != a.graded || snap.Failures > a.cancelled {
			t.Fatalf("%s: partition saw %d requests (%d failures), ground truth graded %d, cancelled %d",
				tn, snap.Requests, snap.Failures, a.graded, a.cancelled)
		}
		gradedTotal += a.graded
		shedTotal += a.shed
		cancelledTotal += a.cancelled
		refusedTotal += a.refused
		partitionTotal += snap.Requests
	}

	global := d.Snapshot()
	if global.Requests != partitionTotal || global.Requests-global.Failures != gradedTotal {
		t.Fatalf("global %d requests (%d failures), tenant partitions sum to %d, ground truth graded %d",
			global.Requests, global.Failures, partitionTotal, gradedTotal)
	}
	var rollup int64
	for _, tn := range global.Tenants {
		rollup += tn.Requests
	}
	if rollup != partitionTotal || len(global.Tenants) != len(tenants) {
		t.Fatalf("snapshot rollup: %d tenants summing to %d, want %d/%d",
			len(global.Tenants), rollup, len(tenants), partitionTotal)
	}

	st := c.Stats()
	// Worker 0 alone parks perWork/2 requests under the faked crowd, less
	// the seventh it cancels.
	if st.Windows == 0 || st.Coalesced < perWork/4 {
		t.Fatalf("stats %+v: the run formed no windows to reconcile", st)
	}
	if st.Bypassed+st.Coalesced != gradedTotal+shedTotal+global.Failures {
		t.Fatalf("coalescer delivered %d (bypassed %d + coalesced %d), ground truth graded+shed+failed = %d",
			st.Bypassed+st.Coalesced, st.Bypassed, st.Coalesced, gradedTotal+shedTotal+global.Failures)
	}
	if st.Shed != shedTotal {
		t.Fatalf("coalescer Shed = %d, ground truth %d", st.Shed, shedTotal)
	}
	if cancelledTotal != refusedTotal+st.Left+global.Failures {
		t.Fatalf("%d cancellations != %d refused at entry + %d left a window + %d died in a solo dispatch",
			cancelledTotal, refusedTotal, st.Left, global.Failures)
	}
}

// entryCtx records what the first Err call saw, which is Do's entry
// check: a context already cancelled there is refused before it touches
// any counter, and the ledger needs to tell that from a departure.
type entryCtx struct {
	context.Context
	asked, dead bool
}

func (e *entryCtx) Err() error {
	err := e.Context.Err()
	if !e.asked {
		e.asked, e.dead = true, err != nil
	}
	return err
}
