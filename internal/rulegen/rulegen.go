// Package rulegen is the Go port of the paper's Fig.-7 routing-rule
// generator. Given a profiled training corpus, it bootstraps every
// candidate service-version ensemble configuration until the observed
// error degradations, response times, and costs are known with the
// requested statistical confidence, records their worst cases, and then
// emits — for every tolerance tier and optimization objective — the
// configuration that optimizes the objective while keeping the
// worst-case error degradation inside the tolerance.
package rulegen

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/stats"
	"github.com/toltiers/toltiers/internal/xrand"
)

// Objective selects what a tier optimizes, annotated by the API consumer
// on every request (§IV-A's `Objective:` header).
type Objective string

const (
	// MinimizeLatency optimizes mean response time ("response-time").
	MinimizeLatency Objective = "response-time"
	// MinimizeCost optimizes mean consumer invocation cost ("cost").
	MinimizeCost Objective = "cost"
)

// ParseObjective validates a header value.
func ParseObjective(s string) (Objective, error) {
	switch Objective(s) {
	case MinimizeLatency, MinimizeCost:
		return Objective(s), nil
	}
	return "", fmt.Errorf("rulegen: unknown objective %q", s)
}

// Candidate couples a policy with its bootstrapped statistics.
type Candidate struct {
	Policy ensemble.Policy
	// Trials is the number of bootstrap trials run before every metric
	// reached confidence.
	Trials int
	// WorstErrDeg is the maximum relative error degradation observed
	// across trials (versus the most accurate configuration on the same
	// sample).
	WorstErrDeg float64
	// WorstLatency and WorstInvCost are the per-trial worst means.
	WorstLatency time.Duration
	WorstInvCost float64
	// MeanErrDeg, MeanLatency, MeanInvCost, MeanIaaSCost are the
	// across-trial means used for objective ranking.
	MeanErrDeg   float64
	MeanLatency  time.Duration
	MeanInvCost  float64
	MeanIaaSCost float64
}

// Config parameterizes the generator.
type Config struct {
	// Confidence is the statistical confidence the bootstrap must reach
	// (the paper evaluates at 99.9%).
	Confidence float64
	// SampleFraction is the fraction of the training data drawn per
	// trial; Fig. 7 uses len(train)/10.
	SampleFraction float64
	// MinTrials / MaxTrials bound the bootstrap loop (see
	// stats.ConfidenceTest).
	MinTrials int
	MaxTrials int
	// ThresholdPoints is the number of confidence quantiles to try per
	// ensemble pair.
	ThresholdPoints int
	// IncludePickBest also enumerates the PickBest result-selection
	// variant of each ensemble.
	IncludePickBest bool
	// Seed drives bootstrap sampling.
	Seed uint64
}

// DefaultConfig returns the evaluation's configuration: 99.9%
// confidence, 1/10 samples, 15 thresholds per pair.
func DefaultConfig() Config {
	return Config{
		Confidence:      0.999,
		SampleFraction:  0.1,
		MinTrials:       12,
		MaxTrials:       320,
		ThresholdPoints: 15,
		IncludePickBest: true,
		Seed:            0x9c0ffee,
	}
}

// Generator bootstraps candidates over a profiled training set.
type Generator struct {
	m          *profile.Matrix
	rows       []int
	cfg        Config
	best       int // index of the most accurate version on rows
	candidates []Candidate
}

// New builds the generator and immediately bootstraps every candidate
// configuration (the paper's RoutingRuleGenerator.__init__).
// rows selects the training subset of m (nil = all rows). It panics on
// a confidence outside (0,1).
func New(m *profile.Matrix, rows []int, cfg Config) *Generator {
	g, _ := NewContext(context.Background(), m, rows, cfg, nil)
	return g
}

// NewContext is New under a context: the sweep stops at the next
// candidate once ctx is done and returns ctx.Err(). progress, when
// non-nil, is called as candidates finish with the number bootstrapped
// so far and the total; calls are serialized, monotone, and end at the
// total.
func NewContext(ctx context.Context, m *profile.Matrix, rows []int, cfg Config, progress func(done, total int)) (*Generator, error) {
	g, policies := plan(m, rows, cfg)
	if err := g.bootstrapAll(ctx, policies, progress); err != nil {
		return nil, err
	}
	return g, nil
}

// plan validates cfg, resolves the training rows (nil = all rows of m),
// selects the baseline version, and enumerates the candidate policies
// of a generator that has not bootstrapped anything yet.
func plan(m *profile.Matrix, rows []int, cfg Config) (*Generator, []ensemble.Policy) {
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		panic(fmt.Sprintf("rulegen: confidence %v outside (0,1)", cfg.Confidence))
	}
	if cfg.SampleFraction <= 0 || cfg.SampleFraction > 1 {
		cfg.SampleFraction = 0.1
	}
	if rows == nil {
		rows = make([]int, m.NumRequests())
		for i := range rows {
			rows[i] = i
		}
	}
	g := &Generator{m: m, rows: rows, cfg: cfg, best: m.BestVersion(rows)}
	return g, enumeratePolicies(m, rows, cfg)
}

// Best returns the index of the most accurate version on the training
// rows — the baseline every tolerance is measured against.
func (g *Generator) Best() int { return g.best }

// Candidates returns the bootstrapped candidates (read-only).
func (g *Generator) Candidates() []Candidate { return g.candidates }

// enumeratePolicies builds the candidate policy set: every single
// version, plus Failover and Concurrent pairs (fast primary -> more
// accurate secondary) across the threshold grid. The order is canonical:
// it defines each candidate's index and therefore its bootstrap seed.
// bootstrapAll hands it out in contiguous chunks, so a worker runs
// consecutive candidates back to back and the escalation-mask cache
// described below hits within its chunk.
func enumeratePolicies(m *profile.Matrix, rows []int, cfg Config) []ensemble.Policy {
	nv := m.NumVersions()
	var out []ensemble.Policy
	for v := 0; v < nv; v++ {
		out = append(out, ensemble.Policy{Kind: ensemble.Single, Primary: v})
	}
	// Thresholds are enumerated outside secondaries so that consecutive
	// candidates share a (primary, threshold) pair: the evaluator's
	// escalation-mask cache then hits across every secondary, kind, and
	// PickBest variant of the pair.
	for p := 0; p < nv; p++ {
		grid := ensemble.ThresholdGrid(m, rows, p, cfg.ThresholdPoints)
		for _, th := range grid {
			if th == 0 {
				continue // identical to Single(p)
			}
			// Within a (primary, secondary, threshold) group the variants
			// are ordered so every adjacent pair differs in exactly one
			// dimension (kind or PickBest): the evaluator then patches
			// one or two fused lanes instead of refilling the table.
			for s := p + 1; s < nv; s++ {
				out = append(out,
					ensemble.Policy{Kind: ensemble.Failover, Primary: p, Secondary: s, Threshold: th},
					ensemble.Policy{Kind: ensemble.Concurrent, Primary: p, Secondary: s, Threshold: th})
				if cfg.IncludePickBest {
					out = append(out,
						ensemble.Policy{Kind: ensemble.Concurrent, Primary: p, Secondary: s, Threshold: th, PickBest: true},
						ensemble.Policy{Kind: ensemble.Failover, Primary: p, Secondary: s, Threshold: th, PickBest: true})
				}
			}
		}
	}
	return out
}

// chunk is how many consecutive candidates a bootstrap worker claims at
// a time (see enumeratePolicies for why consecutive matters).
const chunk = 32

// bootstrapAll runs the Fig.-7 bootstrap for every candidate, in
// parallel. Each candidate draws from its own seeded stream, so the
// result is independent of scheduling. The metric columns are gathered
// once and shared read-only across workers; each worker owns a columnar
// ensemble.Evaluator over the shared set, fusing the candidate's policy
// into flat outcome columns so every bootstrap trial is a branch-free
// sum (including the per-subset baseline error, which shares the same
// gather loop instead of re-scanning the matrix). Workers check ctx
// before each candidate and report each finished chunk to progress.
func (g *Generator) bootstrapAll(ctx context.Context, policies []ensemble.Policy, progress func(done, total int)) error {
	n := len(policies)
	g.candidates = make([]Candidate, n)
	cols := ensemble.GatherColumns(g.m, g.rows)
	workers := max(1, min(runtime.GOMAXPROCS(0), (n+chunk-1)/chunk))
	// Workers send each finished chunk's size to this goroutine, which
	// alone calls progress: calls are serialized without a lock held
	// across them.
	finished := make(chan int)
	var next atomic.Int64 // first unclaimed candidate index
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ev := ensemble.NewEvaluatorFromColumns(cols)
			ev.SetBaseline(g.best)
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= n {
					return
				}
				hi := min(lo+chunk, n)
				for ci := lo; ci < hi; ci++ {
					if ctx.Err() != nil {
						return
					}
					g.candidates[ci] = BootstrapCandidate(ev, policies[ci], ci, g.cfg).Candidate(policies[ci])
				}
				finished <- hi - lo
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
	done := 0
	for k := range finished {
		done += k
		if progress != nil {
			progress(done, n)
		}
	}
	return ctx.Err()
}

// CandidateStats is the raw bootstrap output for one candidate: the
// trial count plus one Welford stats.Stream per bootstrapped metric.
type CandidateStats struct {
	Trials int
	// Streams holds, in order: relative error degradation, response
	// time (float64 nanoseconds), invocation cost, IaaS cost.
	Streams [4]stats.Stream
}

// CandidateSeed derives the bootstrap RNG seed of the candidate at the
// given index of the canonical policy list. The seed depends on the
// index alone — not on which worker runs it — which is what makes the
// parallel sweep deterministic.
func CandidateSeed(cfg Config, index int) uint64 {
	return cfg.Seed + uint64(index)*0x9e3779b97f4a7c15
}

// BootstrapCandidate runs the Fig.-7 bootstrap for one candidate: pol at
// the given index of the canonical policy list, over an evaluator
// covering the training rows with the baseline set (ev.SetBaseline).
// cfg must carry a SampleFraction in (0,1]. Bootstrap subsets index into
// the training rows, which is exactly the evaluator's local row space,
// so trial sums need no index remapping at all.
func BootstrapCandidate(ev *ensemble.Evaluator, pol ensemble.Policy, index int, cfg Config) CandidateStats {
	test := stats.ConfidenceTest{
		Level:     cfg.Confidence,
		MinTrials: cfg.MinTrials,
		MaxTrials: cfg.MaxTrials,
	}
	nRows := ev.NumRows()
	sampleSize := int(cfg.SampleFraction * float64(nRows))
	if sampleSize < 1 || sampleSize > nRows {
		sampleSize = nRows
	}
	ev.SetPolicy(pol)
	rng := xrand.New(CandidateSeed(cfg, index))
	streams := stats.BootstrapStreams(4, test, func(out []float64) {
		t := ev.DrawTrial(rng, sampleSize)
		n := float64(t.N)
		meanErr := t.ErrSum / n
		baseline := t.BaseErrSum / n
		out[0] = ensemble.ErrDegradation(meanErr, baseline)
		out[1] = float64(time.Duration(t.LatNsSum) / time.Duration(t.N))
		out[2] = t.InvSum / n
		out[3] = t.IaaSSum / n
	})
	cs := CandidateStats{Trials: streams[0].N}
	copy(cs.Streams[:], streams)
	return cs
}

// Candidate summarizes the raw streams into the candidate record the
// rule table ranks: worst cases are stream maxima, means are stream
// means — the same floats a stats.BootstrapResult would carry.
func (cs CandidateStats) Candidate(pol ensemble.Policy) Candidate {
	return Candidate{
		Policy:       pol,
		Trials:       cs.Trials,
		WorstErrDeg:  cs.Streams[0].Max,
		WorstLatency: time.Duration(cs.Streams[1].Max),
		WorstInvCost: cs.Streams[2].Max,
		MeanErrDeg:   cs.Streams[0].Mean,
		MeanLatency:  time.Duration(cs.Streams[1].Mean),
		MeanInvCost:  cs.Streams[2].Mean,
		MeanIaaSCost: cs.Streams[3].Mean,
	}
}

// Rule is the configuration chosen for one tolerance tier.
type Rule struct {
	Tolerance float64
	Objective Objective
	Candidate Candidate
}

// RuleTable maps the tolerance grid to rules for one objective.
type RuleTable struct {
	Objective Objective
	// Best is the baseline (most accurate) version index.
	Best int
	// Rules is ordered by increasing tolerance.
	Rules []Rule
}

// Generate emits a rule per tolerance (the paper's `generate`): among
// candidates whose bootstrapped *worst-case* error degradation stays
// within the tolerance, the one with the best mean objective value. The
// most accurate single version always qualifies at any tolerance, so
// every tier is feasible.
func (g *Generator) Generate(tolerances []float64, obj Objective) RuleTable {
	table := RuleTable{Objective: obj, Best: g.best}
	for _, tol := range tolerances {
		bestIdx := -1
		var bestVal float64
		for ci, c := range g.candidates {
			if c.WorstErrDeg > tol && !(c.Policy.Kind == ensemble.Single && c.Policy.Primary == g.best) {
				continue
			}
			val := g.objectiveValue(c, obj)
			if bestIdx == -1 || val < bestVal {
				bestIdx, bestVal = ci, val
			}
		}
		table.Rules = append(table.Rules, Rule{Tolerance: tol, Objective: obj, Candidate: g.candidates[bestIdx]})
	}
	sort.Slice(table.Rules, func(i, j int) bool { return table.Rules[i].Tolerance < table.Rules[j].Tolerance })
	return table
}

func (g *Generator) objectiveValue(c Candidate, obj Objective) float64 {
	switch obj {
	case MinimizeCost:
		return c.MeanInvCost
	default:
		return float64(c.MeanLatency)
	}
}

// Lookup returns the rule for the largest tolerance not exceeding tol
// (i.e. the strictest tier that still covers the request's annotation).
// It returns false when tol is below the smallest generated tolerance.
func (t *RuleTable) Lookup(tol float64) (Rule, bool) {
	idx := sort.Search(len(t.Rules), func(i int) bool { return t.Rules[i].Tolerance > tol })
	if idx == 0 {
		return Rule{}, false
	}
	return t.Rules[idx-1], true
}

// ToleranceGrid returns the paper's evaluation grid: 0 to max in steps
// of step (e.g. 0.10 in 0.001 steps for "up to 10% in 0.1% intervals").
func ToleranceGrid(max, step float64) []float64 {
	if step <= 0 {
		panic("rulegen: non-positive tolerance step")
	}
	var out []float64
	for t := 0.0; t <= max+1e-12; t += step {
		// Round to the step's precision to avoid drift.
		out = append(out, float64(int(t/step+0.5))*step)
	}
	return out
}
