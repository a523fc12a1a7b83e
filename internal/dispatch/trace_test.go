package dispatch

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/trace"
)

// TestDispatchRecordsHedgeLeg drives a warmed failover tier under an
// impossible budget and checks the flight recorder captured the hedge:
// the span is a hedge-kind tail exemplar with both executed legs, the
// secondary marked as the hedge leg.
func TestDispatchRecordsHedgeLeg(t *testing.T) {
	m := visionMatrix(t)
	rec := trace.New(trace.Options{Size: 256, SampleEvery: 1 << 20})
	d := New(NewReplayBackends(m), Options{Recorder: rec})
	reqs := ReplayRequests(m)
	p := ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}
	warm := Ticket{Tier: "warm", Tenant: "ten", Policy: ensemble.Policy{
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
	id := trace.NextID()
	ctx := trace.ContextWithID(context.Background(), id)
	tk := Ticket{Tier: "tight", Tenant: "ten", Policy: p, Budget: time.Duration(pp+sp) / 4}
	o, err := d.Do(ctx, reqs[0], tk)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Hedged {
		t.Fatalf("dispatch did not hedge: %+v", o)
	}
	sp2, ok := rec.Get(id)
	if !ok {
		t.Fatal("hedged span not captured (hedges must bypass the sampler)")
	}
	if sp2.Kind != trace.KindHedge || !sp2.Hedged {
		t.Fatalf("span kind = %s, hedged %v", trace.KindName(sp2.Kind), sp2.Hedged)
	}
	if sp2.Tier != "tight" || sp2.Tenant != "ten" {
		t.Fatalf("span identity = %s/%s", sp2.Tier, sp2.Tenant)
	}
	if sp2.NLegs != 2 {
		t.Fatalf("span has %d legs, want 2", sp2.NLegs)
	}
	if sp2.Legs[0].Hedge || !sp2.Legs[1].Hedge {
		t.Fatalf("hedge flag on wrong leg: %+v", sp2.Legs)
	}
	for i := 0; i < 2; i++ {
		if sp2.Legs[i].Backend == "" || sp2.Legs[i].ServiceNs <= 0 {
			t.Fatalf("leg %d not populated: %+v", i, sp2.Legs[i])
		}
	}
	if sp2.LatencyNs <= 0 || sp2.InvCost <= 0 {
		t.Fatalf("span outcome not mirrored: %+v", sp2)
	}
}

// TestDoBatchTraceAttribution checks a coalesce-style batch context —
// window id, per-item park times, per-item caller trace ids — lands on
// each item's span.
func TestDoBatchTraceAttribution(t *testing.T) {
	m := visionMatrix(t)
	rec := trace.New(trace.Options{Size: 256, SampleEvery: 1})
	d := New(NewReplayBackends(m), Options{Recorder: rec, DisableHedging: true})
	reqs := ReplayRequests(m)
	p := ensemble.Policy{Kind: ensemble.Single, Primary: 0}
	tk := Ticket{Tier: "batch", Policy: p}
	const n = 4
	bm := &trace.BatchMeta{Window: 9, Park: make([]int64, n), IDs: make([]uint64, n)}
	for i := 0; i < n; i++ {
		bm.Park[i] = int64(i+1) * 1000
		bm.IDs[i] = trace.NextID()
	}
	ctx := trace.ContextWithBatch(context.Background(), bm)
	_, errs, err := d.DoBatch(ctx, reqs[:n], tk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		sp, ok := rec.Get(bm.IDs[i])
		if !ok {
			t.Fatalf("item %d span not captured under SampleEvery=1", i)
		}
		if sp.Window != 9 {
			t.Fatalf("item %d window = %d, want 9", i, sp.Window)
		}
		if sp.ParkNs != bm.Park[i] {
			t.Fatalf("item %d park = %d, want %d", i, sp.ParkNs, bm.Park[i])
		}
		if sp.NLegs != 1 || sp.Legs[0].Backend == "" {
			t.Fatalf("item %d legs = %+v", i, sp.Legs)
		}
	}
}

// TestTraceReconciliation runs concurrent Do and DoBatch against one
// recorder and reconciles: every dispatched item was observed exactly
// once, and the committed total equals the per-kind sum. Under -race
// this is the integration tearing proof for the recorder hooks.
func TestTraceReconciliation(t *testing.T) {
	m := visionMatrix(t)
	rec := trace.New(trace.Options{Size: 128, SampleEvery: 4})
	d := New(NewReplayBackends(m), Options{Recorder: rec, DisableHedging: true})
	reqs := ReplayRequests(m)
	p := ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}
	const workers = 6
	const serialPer = 200
	const batches = 20
	const batchN = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			tk := Ticket{Tier: "rec", Tenant: "ten", Policy: p}
			if w%2 == 0 {
				for i := 0; i < serialPer; i++ {
					if _, err := d.Do(ctx, reqs[i%len(reqs)], tk); err != nil {
						t.Error(err)
						return
					}
				}
				return
			}
			var outs []Outcome
			var errs []error
			var err error
			for i := 0; i < batches; i++ {
				outs, errs, err = d.DoBatch(ctx, reqs[:batchN], tk, outs, errs)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range errs {
					if errs[j] != nil {
						t.Errorf("batch item %d: %v", j, errs[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := rec.Stats()
	want := int64(workers/2*serialPer + workers/2*batches*batchN)
	if st.Dispatches != want {
		t.Fatalf("recorder observed %d dispatches, runtime executed %d", st.Dispatches, want)
	}
	var sum int64
	for _, v := range st.Kinds {
		sum += v
	}
	if sum != st.Committed {
		t.Fatalf("Committed = %d but kind counters sum to %d", st.Committed, sum)
	}
	if st.Committed == 0 {
		t.Fatal("nothing committed despite head sampling")
	}
	for _, sp := range rec.Recent(trace.Filter{}, 128) {
		if sp.Tier != "rec" || sp.Tenant != "ten" || sp.NLegs == 0 {
			t.Fatalf("torn or misattributed span: %+v", sp)
		}
	}
}

// TestReplayDispatchAllocsTraced re-runs the serial alloc pin with the
// flight recorder attached: recording must add zero allocations to the
// fast path.
func TestReplayDispatchAllocsTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget measured without -race")
	}
	m := visionMatrix(t)
	rec := trace.New(trace.Options{})
	d := New(NewReplayBackends(m), Options{DisableHedging: true, Recorder: rec})
	reqs := ReplayRequests(m)
	p := ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}
	tk := Ticket{Tier: "alloc/traced", Tenant: "ten", Policy: p}
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if _, err := d.Do(ctx, reqs[i%len(reqs)], tk); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(300, func() {
		if _, err := d.Do(ctx, reqs[i%len(reqs)], tk); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > replayAllocBudget {
		t.Fatalf("recorder-on dispatch: %v allocs/op, budget %v", avg, replayAllocBudget)
	}
}

// TestReplayBatchAllocsTraced is the batch-path twin: recorder on,
// reused buffers, a per-backend cap, < 1 alloc per whole batch.
func TestReplayBatchAllocsTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget measured without -race")
	}
	m := visionMatrix(t)
	rec := trace.New(trace.Options{})
	d := New(NewReplayBackends(m), Options{DisableHedging: true, Recorder: rec, MaxConcurrentPerBackend: 1})
	reqs := ReplayRequests(m)
	p := ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}
	tk := Ticket{Tier: "alloc/traced-batch", Policy: p}
	ctx := context.Background()
	const batch = 64
	var outs []Outcome
	var errs []error
	var err error
	for i := 0; i < 8; i++ {
		outs, errs, err = d.DoBatch(ctx, reqs[:batch], tk, outs, errs)
		if err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		outs, errs, err = d.DoBatch(ctx, reqs[:batch], tk, outs, errs)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 1 {
		t.Fatalf("recorder-on batch: %v allocs per %d-item batch, want < 1", avg, batch)
	}
}
