package dispatch

import (
	"context"
	"math"
	"testing"

	"github.com/toltiers/toltiers/internal/ensemble"
)

// TestFloorEstimate pins the admission layer's deadline-shed input: the
// dispatcher's per-backend floor is NaN until the latency window warms,
// and then equals the window's true minimum observed latency — a real
// empirical lower bound, never an average.
func TestFloorEstimate(t *testing.T) {
	m := visionMatrix(t)
	d := New(NewReplayBackends(m), Options{DisableHedging: true})
	reqs := ReplayRequests(m)
	tk := Ticket{Tier: "floor/0.05", Policy: ensemble.Policy{Kind: ensemble.Single, Primary: 0}}
	ctx := context.Background()

	if f := d.Floor(0); !math.IsNaN(f) {
		t.Fatalf("cold floor = %v, want NaN", f)
	}

	const n = 16
	for i := 0; i < n; i++ {
		if _, err := d.Do(ctx, reqs[i], tk); err != nil {
			t.Fatal(err)
		}
	}
	want := math.Inf(1)
	for i := 0; i < n; i++ {
		if lat := float64(m.At(i, 0).Latency); lat < want {
			want = lat
		}
	}
	got := d.Floor(0)
	if got != want {
		t.Fatalf("floor = %v ns, want window minimum %v ns", got, want)
	}
	// An untouched backend stays floor-less.
	if f := d.Floor(m.NumVersions() - 1); !math.IsNaN(f) {
		t.Fatalf("idle backend floor = %v, want NaN", f)
	}
}

// TestObserverExcludesDowngraded pins the drift-stream hygiene rule for
// brownout traffic: outcomes and failures of downgraded dispatches are
// withheld from the Observer on both the Do and DoBatch paths, exactly
// like client cancellations — a brownout serves requests under a policy
// their tier never promised, so feeding them to the drift detectors
// would report the admission layer's own intervention as model drift.
func TestObserverExcludesDowngraded(t *testing.T) {
	m := visionMatrix(t)
	reqs := ReplayRequests(m)
	pol := ensemble.Policy{Kind: ensemble.Single, Primary: 0}
	ctx := context.Background()

	obs := &countingObserver{}
	d := New(NewReplayBackends(m), Options{DisableHedging: true, Observer: obs})

	down := Ticket{Tier: "hyg/0.10", Policy: pol, Downgraded: true}
	if _, err := d.Do(ctx, reqs[0], down); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.DoBatch(ctx, reqs[:8], down, nil, nil); err != nil {
		t.Fatal(err)
	}
	if obs.outcomes != 0 || obs.failures != 0 {
		t.Fatalf("downgraded traffic observed: %d outcomes, %d failures", obs.outcomes, obs.failures)
	}

	// The same traffic un-downgraded is observed normally.
	norm := Ticket{Tier: "hyg/0.10", Policy: pol}
	if _, err := d.Do(ctx, reqs[0], norm); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.DoBatch(ctx, reqs[:8], norm, nil, nil); err != nil {
		t.Fatal(err)
	}
	if obs.outcomes != 9 {
		t.Fatalf("normal traffic observed %d outcomes, want 9", obs.outcomes)
	}

	// Downgraded backend failures are withheld too.
	obs2 := &countingObserver{}
	dead := NewReplayBackends(m)
	dead[0] = Chaos(dead[0], Perturbation{Kind: ErrorBurst, Shape: Step, Magnitude: 1})
	d2 := New(dead, Options{DisableHedging: true, Observer: obs2})
	if _, err := d2.Do(ctx, reqs[0], down); err == nil {
		t.Fatal("outage dispatch succeeded")
	}
	if obs2.failures != 0 {
		t.Fatalf("downgraded failure observed %d times", obs2.failures)
	}
}
