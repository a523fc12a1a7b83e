package dispatch

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/ensemble"
)

// TestTelemetryConcurrentSnapshot hammers the dispatcher from many
// goroutines — single dispatches and batches, across two tiers — while
// a poller continuously reads Snapshot, then reconciles the final
// telemetry against per-goroutine ground truth. Under `go test -race`
// (a CI job) this is the proof that GET /telemetry never tears or
// loses dispatch-path writes now that the store is sharded.
func TestTelemetryConcurrentSnapshot(t *testing.T) {
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{DisableHedging: true})
	reqs := ReplayRequests(m)
	nv := m.NumVersions()
	tiers := []Ticket{
		{Tier: "race/failover", Policy: ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: nv - 1, Threshold: 0.5}},
		{Tier: "race/concurrent", Policy: ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: nv - 1, Threshold: 0.5}},
	}

	const (
		workers  = 8
		perWork  = 400
		batchLen = 16
	)
	type tally struct {
		requests    int64
		escalations int64
		errSum      float64
		invSum      float64
		maxLatency  time.Duration
		secondary   int64   // secondary-backend invocations
		priLatSum   float64 // primary-backend reported latency (ns)
		secLatSum   float64 // secondary-backend reported latency (ns)
	}
	// count folds one outcome of matrix row r into a tally: each replay
	// leg reports its profiled latency for the row.
	count := func(tl *tally, o *Outcome, r int) {
		tl.requests++
		tl.errSum += o.Err
		tl.invSum += o.InvCost
		tl.maxLatency = max(tl.maxLatency, o.Latency)
		if o.Escalated {
			tl.escalations++
		}
		tl.priLatSum += m.LatencyNs[m.Index(r, 0)]
		if o.Started == 2 {
			tl.secondary++
			tl.secLatSum += m.LatencyNs[m.Index(r, nv-1)]
		}
	}
	tallies := make([]map[string]*tally, workers)
	ctx := context.Background()

	var stop atomic.Bool
	var pollerDone sync.WaitGroup
	pollerDone.Add(1)
	go func() {
		defer pollerDone.Done()
		// The poller's snapshots must always be internally consistent:
		// monotone totals, tier requests never exceeding the global count.
		var lastReq int64
		for !stop.Load() {
			snap := d.Snapshot()
			if snap.Requests < lastReq {
				panic("telemetry went backwards")
			}
			lastReq = snap.Requests
			var tierSum int64
			for _, ts := range snap.Tiers {
				tierSum += ts.Requests
			}
			if tierSum > snap.Requests {
				panic("tier requests exceed total")
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		tal := map[string]*tally{tiers[0].Tier: {}, tiers[1].Tier: {}}
		tallies[w] = tal
		go func(w int) {
			defer wg.Done()
			var outs []Outcome
			var errs []error
			for i := 0; i < perWork; i++ {
				tk := tiers[(w+i)%len(tiers)]
				tl := tal[tk.Tier]
				if i%8 == 7 {
					// Every eighth operation is a batch.
					lo := (w*perWork + i) % (len(reqs) - batchLen)
					var err error
					outs, errs, err = d.DoBatch(ctx, reqs[lo:lo+batchLen], tk, outs, errs)
					if err != nil {
						panic(err)
					}
					for j := range outs {
						if errs[j] != nil {
							panic(errs[j])
						}
						count(tl, &outs[j], lo+j)
					}
					continue
				}
				r := (w*perWork + i) % len(reqs)
				o, err := d.Do(ctx, reqs[r], tk)
				if err != nil {
					panic(err)
				}
				count(tl, &o, r)
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	pollerDone.Wait()

	// Reconcile: summed ground truth equals the merged snapshot.
	want := map[string]*tally{tiers[0].Tier: {}, tiers[1].Tier: {}}
	for _, tal := range tallies {
		for k, tl := range tal {
			agg := want[k]
			agg.requests += tl.requests
			agg.escalations += tl.escalations
			agg.errSum += tl.errSum
			agg.invSum += tl.invSum
			agg.maxLatency = max(agg.maxLatency, tl.maxLatency)
			agg.secondary += tl.secondary
			agg.priLatSum += tl.priLatSum
			agg.secLatSum += tl.secLatSum
		}
	}
	var total, secondaryInv int64
	var invSum, priLatSum, secLatSum float64
	for _, agg := range want {
		total += agg.requests
		secondaryInv += agg.secondary
		invSum += agg.invSum
		priLatSum += agg.priLatSum
		secLatSum += agg.secLatSum
	}

	snap := d.Snapshot()
	if snap.Requests != total || snap.Failures != 0 {
		t.Fatalf("requests=%d failures=%d, want %d/0", snap.Requests, snap.Failures, total)
	}
	for _, ts := range snap.Tiers {
		agg, ok := want[ts.Tier]
		if !ok {
			t.Fatalf("unexpected tier %q", ts.Tier)
		}
		if ts.Requests != agg.requests || ts.Graded != agg.requests || ts.Escalations != agg.escalations {
			t.Fatalf("tier %s: req=%d graded=%d esc=%d, want %d/%d/%d",
				ts.Tier, ts.Requests, ts.Graded, ts.Escalations, agg.requests, agg.requests, agg.escalations)
		}
		wantMean := agg.errSum / float64(agg.requests)
		if math.Abs(ts.MeanErr-wantMean) > 1e-9 {
			t.Fatalf("tier %s: mean err %v, want %v", ts.Tier, ts.MeanErr, wantMean)
		}
		if wantMax := float64(agg.maxLatency) / 1e6; ts.MaxLatencyMS != wantMax {
			t.Fatalf("tier %s: max latency %vms, want %vms", ts.Tier, ts.MaxLatencyMS, wantMax)
		}
	}
	// Backend accounting: the primary ran every request, the secondary
	// every two-leg dispatch; summed invocation billing matches outcomes.
	if got := snap.Backends[0].Invocations; got != total {
		t.Fatalf("primary invocations = %d, want %d", got, total)
	}
	if got := snap.Backends[nv-1].Invocations; got != secondaryInv {
		t.Fatalf("secondary invocations = %d, want %d", got, secondaryInv)
	}
	// Every invocation here reported a latency, so a backend's mean is
	// its profiled latencies over its invocations.
	for _, bk := range []struct {
		i    int
		sum  float64
		invs int64
	}{{0, priLatSum, total}, {nv - 1, secLatSum, secondaryInv}} {
		want := bk.sum / float64(bk.invs) / 1e6
		if got := snap.Backends[bk.i].MeanLatencyMS; math.Abs(got-want) > 1e-9*want {
			t.Fatalf("backend %d: mean latency %vms, want %vms", bk.i, got, want)
		}
	}
	var billed float64
	for _, b := range snap.Backends {
		billed += b.InvocationUSD
	}
	if math.Abs(billed-invSum) > 1e-9 {
		t.Fatalf("billed %v, outcomes summed %v", billed, invSum)
	}
}
