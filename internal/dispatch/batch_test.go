package dispatch

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/service"
)

// TestDoBatchMatchesDo pins the batch contract: DoBatch over any request
// list produces, item by item, exactly the Outcome that Do produces for
// that request — for every policy kind, through the fused replay loop —
// and therefore stays bit-identical to Policy.Simulate (Do's own pinned
// contract). Telemetry totals of a batched run equal a per-request run.
func TestDoBatchMatchesDo(t *testing.T) {
	m := visionMatrix(t)
	nv := m.NumVersions()
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
		single := New(NewReplayBackends(m), Options{DisableHedging: true})
		batched := New(NewReplayBackends(m), Options{DisableHedging: true})
		reqs := ReplayRequests(m)
		tk := Ticket{Tier: "test/" + p.String(), Policy: p}

		outs, errs, err := batched.DoBatch(ctx, reqs, tk, nil, nil)
		if err != nil {
			t.Fatalf("%v: batch error: %v", p, err)
		}
		if len(outs) != len(reqs) || len(errs) != len(reqs) {
			t.Fatalf("%v: %d outcomes, %d errors for %d items", p, len(outs), len(errs), len(reqs))
		}
		for i, req := range reqs {
			if errs[i] != nil {
				t.Fatalf("%v item %d: %v", p, i, errs[i])
			}
			want, err := single.Do(ctx, req, tk)
			if err != nil {
				t.Fatalf("%v row %d: %v", p, i, err)
			}
			if !reflect.DeepEqual(outs[i], want) {
				t.Fatalf("%v row %d: batch %+v != single %+v", p, i, outs[i], want)
			}
			sim := p.Simulate(m.Row(i))
			if outs[i].Err != sim.Err || outs[i].Latency != sim.Latency ||
				outs[i].InvCost != sim.InvCost || outs[i].IaaSCost != sim.IaaSCost ||
				outs[i].Escalated != sim.Escalated || outs[i].Started != sim.Started {
				t.Fatalf("%v row %d: batch %+v != simulate %+v", p, i, outs[i], sim)
			}
		}

		// The batched telemetry transaction matches the per-request one:
		// counts exactly, means up to the last float bits a different
		// summation order moves (a GC can rotate the shard pool between
		// single Do's, so the per-request run may itself span shards).
		bs, ss := batched.Snapshot(), single.Snapshot()
		if bs.Requests != ss.Requests || len(bs.Tiers) != len(ss.Tiers) {
			t.Fatalf("%v: batch snapshot diverges:\n%+v\n%+v", p, bs.Tiers, ss.Tiers)
		}
		for i := range bs.Tiers {
			bt, st := bs.Tiers[i], ss.Tiers[i]
			if bt.Tier != st.Tier || bt.Requests != st.Requests || bt.Escalations != st.Escalations ||
				bt.Graded != st.Graded || bt.MaxLatencyMS != st.MaxLatencyMS ||
				!closeEnough(bt.MeanErr, st.MeanErr) || !closeEnough(bt.MeanLatencyMS, st.MeanLatencyMS) ||
				!closeEnough(bt.MeanCostUSD, st.MeanCostUSD) {
				t.Fatalf("%v tier %d: batch %+v != single %+v", p, i, bt, st)
			}
		}
		for i := range bs.Backends {
			if bs.Backends[i].Invocations != ss.Backends[i].Invocations ||
				math.Abs(bs.Backends[i].InvocationUSD-ss.Backends[i].InvocationUSD) > 1e-12 {
				t.Fatalf("%v backend %d: batch %+v != single %+v", p, i, bs.Backends[i], ss.Backends[i])
			}
		}
	}
}

// TestDoBatchGeneralPath pins the non-fused loop (live backends) to Do.
func TestDoBatchGeneralPath(t *testing.T) {
	pri := &stubBackend{name: "fast", conf: 0.3}
	sec := &stubBackend{name: "big", conf: 0.9}
	bd := New([]Backend{pri, sec}, Options{DisableHedging: true})
	sd := New([]Backend{pri, sec}, Options{DisableHedging: true})
	p := ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: 1, Threshold: 0.5}
	tk := Ticket{Tier: "t", Policy: p}
	batchReqs := makeStubRequests(6)
	outs, errs, err := bd.DoBatch(context.Background(), batchReqs, tk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range batchReqs {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		want, err := sd.Do(context.Background(), req, tk)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(outs[i], want) {
			t.Fatalf("item %d: batch %+v != single %+v", i, outs[i], want)
		}
	}
}

// TestDoBatchPerItemErrors checks that an unknown request ID fails only
// its item: the rest of the batch completes, and the failure is counted.
func TestDoBatchPerItemErrors(t *testing.T) {
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{DisableHedging: true})
	reqs := ReplayRequests(m)
	p := ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}
	tk := Ticket{Tier: "t", Policy: p}
	batch := []*svcReq{reqs[0], {ID: 1 << 30}, reqs[1]}
	outs, errs, err := d.DoBatch(context.Background(), batch, tk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good items failed: %v, %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("unknown request id accepted")
	}
	if outs[0].Started != 2 || outs[2].Started != 2 {
		t.Fatalf("good items: %+v, %+v", outs[0], outs[2])
	}
	snap := d.Snapshot()
	if snap.Requests != 3 || snap.Failures != 1 {
		t.Fatalf("requests=%d failures=%d", snap.Requests, snap.Failures)
	}
}

// TestDoBatchValidation checks batch-level failures: a bad policy
// rejects the whole batch, and an empty batch is a no-op.
func TestDoBatchValidation(t *testing.T) {
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{})
	reqs := ReplayRequests(m)
	bad := Ticket{Tier: "bad", Policy: ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: 99, Threshold: 0.5}}
	if _, _, err := d.DoBatch(context.Background(), reqs[:3], bad, nil, nil); err == nil {
		t.Fatal("out-of-range secondary accepted")
	}
	outs, errs, err := d.DoBatch(context.Background(), nil,
		Ticket{Tier: "t", Policy: ensemble.Policy{Kind: ensemble.Single, Primary: 0}}, nil, nil)
	if err != nil || len(outs) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch: %v %v %v", outs, errs, err)
	}
	if snap := d.Snapshot(); snap.Requests != 0 {
		t.Fatalf("empty batches observed: %+v", snap)
	}
}

// TestDoBatchLeaseFailureCounts checks that a batch dying on the
// limiter lease counts every item as a failed request — the same
// accounting those items would have produced through Do.
func TestDoBatchLeaseFailureCounts(t *testing.T) {
	held := make(chan struct{}, 1)
	b := &stubBackend{name: "slow", conf: 1, delay: time.Hour, held: held}
	d := New([]Backend{b}, Options{MaxConcurrentPerBackend: 1})
	tk := Ticket{Tier: "t", Policy: ensemble.Policy{Kind: ensemble.Single, Primary: 0}}
	// Saturate the only slot — the holder reports from inside the
	// backend and stays there until cancelled — then lease a batch with
	// an expiring context.
	hold, release := context.WithCancel(context.Background())
	defer release()
	go d.Do(hold, &svcReq{ID: 1}, tk) //nolint:errcheck // holds the slot
	<-held
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	reqs := makeStubRequests(5)
	_, _, err := d.DoBatch(ctx, reqs, tk, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "backend limiter") {
		t.Fatalf("err = %v, want the lease to fail on the saturated limiter", err)
	}
	snap := d.Snapshot()
	if snap.Failures != int64(len(reqs)) {
		t.Fatalf("failures = %d, want %d", snap.Failures, len(reqs))
	}
}

// TestDoBatchLeasing checks that concurrent batches under a per-backend
// concurrency cap of 1 serialize on the lease instead of deadlocking,
// and that every item still succeeds.
func TestDoBatchLeasing(t *testing.T) {
	b0 := &stubBackend{name: "a", conf: 0.3, delay: time.Millisecond}
	b1 := &stubBackend{name: "b", conf: 0.9, delay: time.Millisecond}
	d := New([]Backend{b0, b1}, Options{MaxConcurrentPerBackend: 1, DisableHedging: true})
	tk := Ticket{Tier: "t", Policy: ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: 1, Threshold: 0.5}}
	reqs := makeStubRequests(4)
	var wg sync.WaitGroup
	failures := make([]error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs, err := d.DoBatch(context.Background(), reqs, tk, nil, nil)
			if err != nil {
				failures[g] = err
				return
			}
			for _, e := range errs {
				if e != nil {
					failures[g] = e
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range failures {
		if err != nil {
			t.Fatalf("batch %d: %v", g, err)
		}
	}
	if snap := d.Snapshot(); snap.Requests != 12 {
		t.Fatalf("requests = %d, want 12", snap.Requests)
	}
}

// TestDoBatchContendedLease runs DoBatch in the embedded shape: 16
// goroutines batch 8 items at a time through two tickets whose replay
// policies share both legs, under a per-backend cap of 1, so nearly
// every release hands its slots to a parked batch. Every call
// completes, every outcome equals a serial DoBatch's bit for bit, the
// telemetry request count is exact, and every slot is back at the end.
func TestDoBatchContendedLease(t *testing.T) {
	m := visionMatrix(t)
	nv := m.NumVersions()
	reqs := ReplayRequests(m)
	tickets := []Ticket{
		{Tier: "lease/0", Policy: ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: nv - 1, Threshold: 0.772}},
		{Tier: "lease/0.10", Policy: ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: nv - 1, Threshold: 0.504, PickBest: true}},
	}
	const goroutines, rounds, batch = 16, 24, 8
	ctx := context.Background()

	serial := New(NewReplayBackends(m), Options{DisableHedging: true})
	want := make([][]Outcome, len(tickets))
	for k, tk := range tickets {
		outs, errs, err := serial.DoBatch(ctx, reqs, tk, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("serial %s item %d: %v", tk.Tier, i, e)
			}
		}
		want[k] = outs
	}

	d := New(NewReplayBackends(m), Options{MaxConcurrentPerBackend: 1, DisableHedging: true})
	fails := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var outs []Outcome
			var errs []error
			var err error
			for r := range rounds {
				k := (g + r) % len(tickets)
				lo := (g*rounds + r) * batch % (len(reqs) - batch)
				outs, errs, err = d.DoBatch(ctx, reqs[lo:lo+batch], tickets[k], outs, errs)
				if err != nil {
					fails[g] = err
					return
				}
				for i := range outs {
					if errs[i] != nil {
						fails[g] = errs[i]
						return
					}
					if !reflect.DeepEqual(outs[i], want[k][lo+i]) {
						fails[g] = fmt.Errorf("%s request %d: contended %+v != serial %+v",
							tickets[k].Tier, lo+i, outs[i], want[k][lo+i])
						return
					}
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("contended batches still running after a minute: a lease was never handed on")
	}
	for g, err := range fails {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := d.Snapshot().Requests; got != goroutines*rounds*batch {
		t.Fatalf("telemetry counted %d requests, want %d", got, goroutines*rounds*batch)
	}
	if len(d.sems[0]) != 0 || len(d.sems[nv-1]) != 0 {
		t.Fatalf("slots still held after every batch returned: %d and %d", len(d.sems[0]), len(d.sems[nv-1]))
	}
}

// TestDoBatchHedged checks the fused hedge path: once the trackers are
// warm, a batched failover tier under an impossible budget hedges every
// item with the same outcomes Do produces on the same dispatcher.
func TestDoBatchHedged(t *testing.T) {
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{})
	reqs := ReplayRequests(m)
	p := ensemble.Policy{Kind: ensemble.Failover, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}
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
	tight := Ticket{Tier: "tight", Policy: p, Budget: time.Duration(pp+sp) / 4}
	n := 40
	outs, errs, err := d.DoBatch(context.Background(), reqs[:n], tight, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if !outs[i].Hedged || outs[i].Started != 2 {
			t.Fatalf("item %d not hedged: %+v", i, outs[i])
		}
		want, err := d.Do(context.Background(), reqs[i], tight)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(outs[i], want) {
			t.Fatalf("item %d: batch %+v != single %+v", i, outs[i], want)
		}
	}
}

// closeEnough compares two floats up to the relative drift a different
// summation order (shards added in another order) leaves in a mean.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// svcReq aliases the service request for test brevity.
type svcReq = service.Request

// makeStubRequests builds n requests for stub-backend batches.
func makeStubRequests(n int) []*svcReq {
	out := make([]*svcReq, n)
	for i := range out {
		out[i] = &svcReq{ID: i}
	}
	return out
}
