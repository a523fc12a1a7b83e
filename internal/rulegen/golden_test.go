package rulegen_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/vision"
)

// goldenHash is FNV-64a over the bits of a sequence of float64s. Integer
// fields (indices, trial counts, nanosecond latencies) are small enough
// to convert to float64 exactly.
type goldenHash struct{ h hash.Hash64 }

func newGoldenHash() goldenHash { return goldenHash{fnv.New64a()} }

func (g goldenHash) add(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		g.h.Write(b[:])
	}
}

func (g goldenHash) candidate(c rulegen.Candidate) {
	pickBest := 0.0
	if c.Policy.PickBest {
		pickBest = 1
	}
	g.add(float64(c.Policy.Kind), float64(c.Policy.Primary), float64(c.Policy.Secondary),
		c.Policy.Threshold, pickBest, float64(c.Trials),
		c.WorstErrDeg, float64(c.WorstLatency), c.WorstInvCost,
		c.MeanErrDeg, float64(c.MeanLatency), c.MeanInvCost, c.MeanIaaSCost)
}

// TestSetUpGolden pins the whole set-up path bit for bit: every column
// profile.Build measures on a seeded 400-request GPU vision corpus, every
// field of every candidate rulegen.New bootstraps from it at DefaultConfig,
// and both rule tables on the grid ttserver ships. The profile pass and
// the bootstrap kernel are tuned for speed under the contract that no
// float they produce changes, and a change to any of them changes a hash
// here. Regenerate the constants only for a deliberate change of
// behaviour (corpus, draw, seed, trial order or confidence rule).
func TestSetUpGolden(t *testing.T) {
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 400, Seed: 7, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	g := rulegen.New(m, nil, rulegen.DefaultConfig())

	got := map[string]uint64{}
	for name, col := range map[string][]float64{
		"profile.Err": m.Err, "profile.LatencyNs": m.LatencyNs, "profile.Confidence": m.Confidence,
		"profile.InvCost": m.InvCost, "profile.IaaSCost": m.IaaSCost,
	} {
		h := newGoldenHash()
		h.add(col...)
		got[name] = h.h.Sum64()
	}
	h := newGoldenHash()
	h.add(float64(g.Best()))
	for _, cand := range g.Candidates() {
		h.candidate(cand)
	}
	got["candidates"] = h.h.Sum64()
	grid := rulegen.ToleranceGrid(0.10, 0.005)
	for _, obj := range []rulegen.Objective{rulegen.MinimizeLatency, rulegen.MinimizeCost} {
		table := g.Generate(grid, obj)
		h := newGoldenHash()
		h.h.Write([]byte(table.Objective))
		h.add(float64(table.Best))
		for _, r := range table.Rules {
			h.add(r.Tolerance)
			h.candidate(r.Candidate)
		}
		got["table."+string(obj)] = h.h.Sum64()
	}

	want := map[string]uint64{
		"profile.Err":         0xd3917204d85c1b18,
		"profile.LatencyNs":   0xa2a8e2c8e4931aff,
		"profile.Confidence":  0x53fe8fdd9145c3f7,
		"profile.InvCost":     0x607e9e81911265a5,
		"profile.IaaSCost":    0xd2a67cd38c471bc2,
		"candidates":          0xe7118a4eb982149c,
		"table.response-time": 0x9ef590dad90a9475,
		"table.cost":          0x16ce2f9136543822,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s hashes to %#x, want %#x", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("hashed %d groups, want %d", len(got), len(want))
	}
}
