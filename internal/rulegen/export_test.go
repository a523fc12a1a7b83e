package rulegen

import (
	"runtime"
	"sync"
	"time"

	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/stats"
	"github.com/toltiers/toltiers/internal/xrand"
)

// NewLegacyKernel builds a generator that bootstraps through the
// row-oriented Policy.Simulate/Evaluate path. The legacy kernel lives
// entirely in this test-only file — the production generator drives the
// columnar Evaluator exclusively — and exists so the kernel-equivalence
// properties can assert that both kernels generate identical candidates
// and rule tables.
func NewLegacyKernel(m *profile.Matrix, rows []int, cfg Config) *Generator {
	g, policies := plan(m, rows, cfg)
	g.candidates = make([]Candidate, len(policies))
	test := stats.ConfidenceTest{
		Level:     g.cfg.Confidence,
		MinTrials: g.cfg.MinTrials,
		MaxTrials: g.cfg.MaxTrials,
	}
	sampleSize := int(g.cfg.SampleFraction * float64(len(g.rows)))
	if sampleSize < 1 {
		sampleSize = len(g.rows)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(policies) {
		workers = len(policies)
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			g.bootstrapWorkerLegacy(policies, test, sampleSize, next)
		}()
	}
	for ci := range policies {
		next <- ci
	}
	close(next)
	wg.Wait()
	return g
}

// bootstrapWorkerLegacy is the pre-columnar reference bootstrap loop:
// per-row Cell loads through Policy.Simulate, a second pass for the
// baseline error, a fresh Trial slice per subset.
func (g *Generator) bootstrapWorkerLegacy(policies []ensemble.Policy, test stats.ConfidenceTest, sampleSize int, next <-chan int) {
	sub := make([]int, sampleSize)
	for ci := range next {
		pol := policies[ci]
		rng := xrand.New(CandidateSeed(g.cfg, ci))
		res := stats.Bootstrap(rng, len(g.rows), sampleSize, test, func(subset []int) stats.Trial {
			for i, idx := range subset {
				sub[i] = g.rows[idx]
			}
			agg := ensemble.Evaluate(g.m, sub, pol)
			baseline := g.m.MeanErrOf(g.best, sub)
			deg := ensemble.ErrDegradation(agg.MeanErr, baseline)
			return stats.Trial{deg, float64(agg.MeanLatency), agg.MeanInvCost, agg.MeanIaaSCost}
		})
		g.candidates[ci] = Candidate{
			Policy:       pol,
			Trials:       res.Trials,
			WorstErrDeg:  res.WorstCase[0],
			WorstLatency: time.Duration(res.WorstCase[1]),
			WorstInvCost: res.WorstCase[2],
			MeanErrDeg:   res.Mean[0],
			MeanLatency:  time.Duration(res.Mean[1]),
			MeanInvCost:  res.Mean[2],
			MeanIaaSCost: res.Mean[3],
		}
	}
}
