package ensemble

import (
	"testing"

	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/vision"
	"github.com/toltiers/toltiers/internal/xrand"
)

// Allocation-regression pins for the bootstrap kernel: SetPolicy is
// paid once per candidate and DrawTrial (or Trial) once per bootstrap
// draw, tens of millions of times per rule-generation sweep. Creep here
// fails `go test`, not just the benchmark eyeball. (The budgets hold
// without the race detector; its instrumentation allocates.)
func TestEvaluatorAllocs(t *testing.T) {
	c := dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: 120, Device: vision.GPU})
	m := profile.Build(c.Service, c.Requests)
	ev := NewEvaluator(m, nil)
	ev.SetBaseline(m.NumVersions() - 1)
	kinds := []Kind{Failover, Concurrent}
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		ev.SetPolicy(Policy{Kind: kinds[i%2], Primary: 0, Secondary: m.NumVersions() - 1, Threshold: 0.5})
		i++
	}); avg > 0 {
		t.Fatalf("SetPolicy: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if tr := ev.Trial(nil); tr.LatNsSum <= 0 {
			t.Fatal("bad trial")
		}
	}); avg > 0 {
		t.Fatalf("Trial: %v allocs/op, want 0", avg)
	}
	rng := xrand.New(1)
	if avg := testing.AllocsPerRun(100, func() {
		if tr := ev.DrawTrial(rng, 12); tr.LatNsSum <= 0 {
			t.Fatal("bad trial")
		}
	}); avg > 0 {
		t.Fatalf("DrawTrial: %v allocs/op, want 0", avg)
	}
}
