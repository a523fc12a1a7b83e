package ensemble

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/xrand"
)

// randomMatrix synthesizes a profile matrix with nReq x nVer random but
// plausible measurements, including exact-tie confidences so threshold
// boundary behaviour is exercised.
func randomMatrix(rng *xrand.RNG, nReq, nVer int) *profile.Matrix {
	names := make([]string, nVer)
	ids := make([]int, nReq)
	for i := range ids {
		ids[i] = i
	}
	m := profile.New("fuzz", names, ids)
	for i := 0; i < nReq; i++ {
		for v := 0; v < nVer; v++ {
			// Coarse confidence grid: ties with thresholds are common.
			conf := float64(rng.Intn(9)) / 8
			lat := time.Duration(1+rng.Intn(500)) * time.Millisecond
			if rng.Intn(20) == 0 {
				lat = 0 // exercise the concurrent zero-latency denominator guard
			}
			m.SetAt(i, v, profile.Cell{
				Err:        float64(rng.Intn(5)) / 4,
				Latency:    lat,
				Confidence: conf,
				InvCost:    0.1 + rng.Float64(),
				IaaSCost:   rng.Float64(),
			})
		}
	}
	return m
}

// randomPolicy draws a policy across all kinds and variants.
func randomPolicy(rng *xrand.RNG, nVer int) Policy {
	kind := Kind(rng.Intn(3))
	p := Policy{Kind: kind, Primary: rng.Intn(nVer)}
	if kind == Single {
		return p
	}
	p.Secondary = rng.Intn(nVer)
	for p.Secondary == p.Primary {
		p.Secondary = rng.Intn(nVer)
	}
	// Thresholds on the same grid as confidences (ties), plus the
	// accept-all and escalate-all sentinels.
	p.Threshold = float64(rng.Intn(11)) / 8
	p.PickBest = rng.Intn(2) == 1
	return p
}

// The columnar Evaluator must reproduce the row-oriented Evaluate
// aggregate exactly — same float64 bits, not approximately — for every
// policy kind, PickBest variant, threshold (including sentinels and
// exact confidence ties), and row subset.
func TestEvaluatorMatchesEvaluateQuick(t *testing.T) {
	rng := xrand.New(0x5eed)
	f := func(_ uint8) bool {
		nReq := 10 + rng.Intn(40)
		nVer := 2 + rng.Intn(4)
		m := randomMatrix(rng, nReq, nVer)

		// Training rows: either all rows or a random subset.
		var rows []int
		if rng.Intn(2) == 1 {
			rows = make([]int, 5+rng.Intn(nReq))
			for i := range rows {
				rows[i] = rng.Intn(nReq)
			}
		}
		ev := NewEvaluator(m, rows)

		for trial := 0; trial < 8; trial++ {
			p := randomPolicy(rng, nVer)

			// Bootstrap subset: local indices into rows (or all rows).
			var local []int
			if trial%2 == 0 {
				local = make([]int, 1+rng.Intn(ev.NumRows()))
				for i := range local {
					local[i] = rng.Intn(ev.NumRows())
				}
			}
			// The legacy path takes global matrix row indices.
			global := local
			if rows != nil {
				if local == nil {
					global = rows
				} else {
					global = make([]int, len(local))
					for i, r := range local {
						global[i] = rows[r]
					}
				}
			}

			ev.SetPolicy(p)
			got := ev.Aggregate(local)
			want := Evaluate(m, global, p)
			if got != want {
				t.Logf("policy %v rows=%v subset=%v:\n got %+v\nwant %+v", p, rows, local, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The per-trial baseline error summed by the evaluator must equal
// Matrix.MeanErrOf over the same subset.
func TestEvaluatorBaselineMatchesMeanErrOfQuick(t *testing.T) {
	rng := xrand.New(0xba5e)
	f := func(_ uint8) bool {
		nReq := 10 + rng.Intn(30)
		nVer := 2 + rng.Intn(4)
		m := randomMatrix(rng, nReq, nVer)
		best := m.BestVersion(nil)
		ev := NewEvaluator(m, nil)
		ev.SetBaseline(best)
		ev.SetPolicy(Policy{Kind: Single, Primary: 0})

		subset := make([]int, 1+rng.Intn(nReq))
		for i := range subset {
			subset[i] = rng.Intn(nReq)
		}
		tr := ev.Trial(subset)
		if got, want := tr.BaseErrSum/float64(tr.N), m.MeanErrOf(best, subset); got != want {
			t.Logf("baseline mean %v != MeanErrOf %v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The mask cache must not leak state across policies: re-fusing a
// different (primary, threshold, kind) after a cached pair still yields
// exact equivalence. This drives policy sequences that share and then
// break the (primary, threshold) cache key.
func TestEvaluatorMaskCacheSequences(t *testing.T) {
	rng := xrand.New(0xcac4e)
	m := randomMatrix(rng, 60, 4)
	ev := NewEvaluator(m, nil)
	seq := []Policy{
		{Kind: Failover, Primary: 0, Secondary: 3, Threshold: 0.5},
		{Kind: Failover, Primary: 0, Secondary: 3, Threshold: 0.5, PickBest: true},
		{Kind: Concurrent, Primary: 0, Secondary: 3, Threshold: 0.5},
		{Kind: Concurrent, Primary: 0, Secondary: 1, Threshold: 0.5, PickBest: true},
		{Kind: Single, Primary: 2},
		{Kind: Failover, Primary: 0, Secondary: 2, Threshold: 0.5}, // same pair as start
		{Kind: Failover, Primary: 1, Secondary: 2, Threshold: 0.5}, // new primary
		{Kind: Failover, Primary: 1, Secondary: 2, Threshold: 0.75},
		// Delta-patch transitions: kind flip, PickBest flips, kind flip
		// under PickBest, and a PickBest flip back.
		{Kind: Concurrent, Primary: 1, Secondary: 2, Threshold: 0.75},
		{Kind: Concurrent, Primary: 1, Secondary: 2, Threshold: 0.75, PickBest: true},
		{Kind: Failover, Primary: 1, Secondary: 2, Threshold: 0.75, PickBest: true},
		{Kind: Failover, Primary: 1, Secondary: 2, Threshold: 0.75},
		{Kind: Concurrent, Primary: 1, Secondary: 2, Threshold: 0.75, PickBest: true}, // both differ: full refill
	}
	for i, p := range seq {
		ev.SetPolicy(p)
		if got, want := ev.Aggregate(nil), Evaluate(m, nil, p); got != want {
			t.Fatalf("step %d (%v): got %+v, want %+v", i, p, got, want)
		}
	}
}

// DrawTrial must return Trial's sums over the rows FillIntn draws and
// leave the generator where FillIntn leaves it, on whichever path this
// host runs, for empty, odd and even draws in a row.
func TestDrawTrialMatchesFillIntnThenTrial(t *testing.T) {
	const rows = 300
	m := randomMatrix(xrand.New(0xd7a3), rows, 4)
	ev := NewEvaluator(m, nil)
	ev.SetBaseline(3)
	ev.SetPolicy(Policy{Kind: Concurrent, Primary: 0, Secondary: 3, Threshold: 0.5})
	got, want := xrand.New(9), xrand.New(9)
	for _, k := range []int{0, 1, 30, 31, rows, 2*rows + 1} {
		g := ev.DrawTrial(got, k)
		subset := make([]int, k)
		want.FillIntn(subset, rows)
		if w := ev.Trial(subset); g != w {
			t.Fatalf("k %d: DrawTrial %+v, want %+v", k, g, w)
		}
		if *got != *want {
			t.Fatalf("k %d: generator %+v, want %+v", k, *got, *want)
		}
	}
}
