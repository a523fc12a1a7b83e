package dispatch

import (
	"context"
	"testing"

	"github.com/toltiers/toltiers/internal/ensemble"
)

// Allocation-regression pins for the serving fast path. The replay
// dispatch loop is the throughput ceiling of the runtime; alloc creep
// there fails `go test`, not just the benchmark eyeball. The budget is
// ≤ 2 allocs/op — steady state is zero, and the slack only absorbs a
// GC emptying the call pools mid-measurement.

const replayAllocBudget = 2

func dispatchAllocsPerRun(t *testing.T, p ensemble.Policy, budget float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget measured without -race")
	}
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{DisableHedging: true})
	reqs := ReplayRequests(m)
	tk := Ticket{Tier: "alloc/" + p.String(), Policy: p}
	ctx := context.Background()
	// Warm the call and telemetry pools and the tier map entry.
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
	if avg > budget {
		t.Fatalf("%v: %v allocs/op on the replay fast path, budget %v", p, avg, budget)
	}
}

// TestReplayDispatchAllocs pins Do over replay backends at ≤ 2
// allocs/op for every policy kind.
func TestReplayDispatchAllocs(t *testing.T) {
	m := visionMatrix(t)
	nv := m.NumVersions()
	for _, p := range []ensemble.Policy{
		{Kind: ensemble.Single, Primary: 0},
		{Kind: ensemble.Failover, Primary: 0, Secondary: nv - 1, Threshold: 0.5},
		{Kind: ensemble.Concurrent, Primary: 0, Secondary: nv - 1, Threshold: 0.5},
	} {
		dispatchAllocsPerRun(t, p, replayAllocBudget)
	}
}

// TestReplayBatchAllocs pins DoBatch with reused buffers at < 1 alloc
// per whole batch on average: none in steady state, the per-backend
// cap making the limiter lease part of the measured path.
func TestReplayBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget measured without -race")
	}
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{DisableHedging: true, MaxConcurrentPerBackend: 1})
	reqs := ReplayRequests(m)
	p := ensemble.Policy{Kind: ensemble.Concurrent, Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5}
	tk := Ticket{Tier: "alloc/batch", Policy: p}
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
		t.Fatalf("%v allocs per %d-item batch, want < 1", avg, batch)
	}
}

var tierKeySink string

// TestTierKeyHitAllocs pins an interned TierKey hit at < 1 alloc per
// call: building a Ticket's tier per request is free.
func TestTierKeyHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budget measured without -race")
	}
	TierKey("response-time", 0.05)
	avg := testing.AllocsPerRun(1000, func() {
		tierKeySink = TierKey("response-time", 0.05)
	})
	if avg >= 1 {
		t.Fatalf("TierKey hit: %v allocs per call, want < 1", avg)
	}
}
