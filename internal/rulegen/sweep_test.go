package rulegen

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/xrand"
)

// Progress must be monotone, serialized, and end exactly at the
// candidate total. The callback keeps its state unguarded, so under
// -race a concurrent call is a reported data race.
func TestGenerateProgress(t *testing.T) {
	rng := xrand.New(0x90)
	m := fuzzMatrix(rng, 200, 4)
	cfg := DefaultConfig()
	cfg.MinTrials = 3
	cfg.MaxTrials = 8
	last, calls := 0, 0
	g, err := NewContext(context.Background(), m, nil, cfg, func(done, total int) {
		if done <= last || done > total {
			t.Errorf("progress %d after %d (total %d)", done, last, total)
		}
		last = done
		calls++
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Candidates()); last != n || calls == 0 {
		t.Fatalf("progress ended at %d after %d calls, want %d", last, calls, n)
	}
}

// A cancelled context must abort the sweep with the context's error.
func TestGenerateCancelled(t *testing.T) {
	rng := xrand.New(0x7)
	m := fuzzMatrix(rng, 60, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := NewContext(ctx, m, nil, DefaultConfig(), nil)
	if !errors.Is(err, context.Canceled) || g != nil {
		t.Fatalf("NewContext = %v, %v; want nil, context.Canceled", g, err)
	}
}

// Many evaluators sharing one ColumnSet from concurrent goroutines must
// each produce the results a private, freshly gathered evaluator
// produces, and both must reproduce the generator's own candidates. Run
// under -race this doubles as the shared-gather race test (the CI race
// job runs this package).
func TestSharedColumnSetConcurrentEvaluators(t *testing.T) {
	rng := xrand.New(0xc01)
	m := fuzzMatrix(rng, 120, 4)
	cols := ensemble.GatherColumns(m, nil)
	cfg := DefaultConfig()
	cfg.MinTrials = 4
	cfg.MaxTrials = 16
	gen := New(m, nil, cfg)
	cands := gen.Candidates()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shared := ensemble.NewEvaluatorFromColumns(cols)
			shared.SetBaseline(gen.Best())
			private := ensemble.NewEvaluator(m, nil)
			private.SetBaseline(gen.Best())
			// Each goroutine walks the grid from a different offset so
			// concurrent reads hit different columns at the same time.
			for i := range cands {
				ci := (i + g*len(cands)/goroutines) % len(cands)
				pol := cands[ci].Policy
				got := BootstrapCandidate(shared, pol, ci, cfg)
				want := BootstrapCandidate(private, pol, ci, cfg)
				if got != want {
					errs <- errors.New("shared-column evaluator diverged from private evaluator")
					return
				}
				if got.Candidate(pol) != cands[ci] {
					errs <- errors.New("re-bootstrapped candidate diverged from the generator's")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
