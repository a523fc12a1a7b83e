package stats

import (
	"math"

	"github.com/toltiers/toltiers/internal/xrand"
)

// Bootstrap machinery mirroring Fig. 7 of the paper. A caller repeatedly
// draws random subsets of the training data, simulates a candidate
// configuration on each subset ("trial"), and keeps going until the
// observed trial metrics are spread widely enough — per the paper's
// z-score criterion — to trust their extremes as worst cases.
//
// The confidence test only ever needs a metric's mean, variance, min
// and max, so trials are folded into Stream accumulators (Welford's
// algorithm plus tracked extremes) instead of storing the full history:
// the per-trial stopping check is O(metrics) rather than the O(trials)
// re-scan a stored series would need, and a bootstrap run performs no
// allocation after the first trial.

// Stream accumulates a metric series incrementally: count, running mean
// and M2 (Welford), and the observed extremes. The zero value is an
// empty stream.
type Stream struct {
	// N is the number of observations.
	N int
	// Mean is the running arithmetic mean.
	Mean float64
	// M2 is the sum of squared deviations from the running mean.
	M2 float64
	// Min and Max are the observed extremes (zero until the first Add).
	Min float64
	// Max is the maximum observation.
	Max float64
}

// Add folds one observation into the stream.
func (s *Stream) Add(x float64) {
	s.N++
	if s.N == 1 {
		s.Min, s.Max = x, x
	} else {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	delta := x - s.Mean
	s.Mean += delta / float64(s.N)
	s.M2 += delta * (x - s.Mean)
}

// Merge folds the observations of o into s, as if every observation o
// absorbed had been Added to s (Chan et al.'s parallel Welford
// combination). Count, Min and Max merge exactly; Mean and M2 are
// combined in floating point and may differ from sequential accumulation
// in the last bits — Merge is therefore used for striped summary
// statistics, never on the bit-exact rule-generation path, where every
// candidate's streams are accumulated whole on one worker.
func (s *Stream) Merge(o Stream) {
	if o.N == 0 {
		return
	}
	if s.N == 0 {
		*s = o
		return
	}
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	n1, n2 := float64(s.N), float64(o.N)
	delta := o.Mean - s.Mean
	n := n1 + n2
	s.Mean += delta * n2 / n
	s.M2 += o.M2 + delta*delta*n1*n2/n
	s.N += o.N
}

// Variance returns the population variance (denominator n) of the
// observations so far.
func (s *Stream) Variance() float64 {
	if s.N == 0 {
		return 0
	}
	return s.M2 / float64(s.N)
}

// StdDev returns the population standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// ConfidenceTest implements the paper's Fig.-7 `confident` predicate.
// It reports whether the spread of a metric series is sufficient at the
// stored confidence level: either the standardized sample reaches beyond
// ±ppf(conf), or the total standardized spread exceeds 2·ppf(conf).
type ConfidenceTest struct {
	// Level is the confidence level, e.g. 0.999 for the paper's 99.9%.
	Level float64
	// MinTrials guards the z-score computation: with too few trials the
	// spread criterion is meaningless. The generator never stops before
	// MinTrials observations. Values below 2 are treated as 2.
	MinTrials int
	// MaxTrials bounds runaway sampling for near-degenerate metrics
	// (e.g. a configuration whose cost is constant). Once reached, the
	// observed extremes are accepted. Zero means 256.
	MaxTrials int
}

// bounds returns the effective trial bounds.
func (c ConfidenceTest) bounds() (minT, maxT int) {
	minT = c.MinTrials
	if minT < 2 {
		minT = 2
	}
	maxT = c.MaxTrials
	if maxT == 0 {
		maxT = 256
	}
	if maxT < minT {
		maxT = minT
	}
	return minT, maxT
}

// ConfidentStream reports whether the accumulated metric stream has
// enough spread to stop sampling, following the paper's criterion:
//
//	(min(z) < -ppf(conf) && max(z) > ppf(conf)) || (max(z)-min(z) > 2*ppf(conf))
//
// where min(z) = (min-mean)/sd and max(z) = (max-mean)/sd — the only two
// z-scores the criterion can ever bind on, so the full standardized
// series is never materialized. A stream shorter than MinTrials is
// never confident; a stream at or beyond MaxTrials always is. A
// zero-variance stream at MinTrials or later is treated as confident:
// the metric is constant, so its extreme is already exact.
func (c ConfidenceTest) ConfidentStream(s *Stream) bool {
	return c.confidentStreamZ(s, NormPPF(c.Level))
}

// confidentStreamZ is ConfidentStream with ppf(Level) precomputed, so
// the bootstrap loop does not re-derive the constant quantile on every
// trial of every metric.
func (c ConfidenceTest) confidentStreamZ(s *Stream, stdevs float64) bool {
	minT, maxT := c.bounds()
	if s.N < minT {
		return false
	}
	if s.N >= maxT {
		return true
	}
	sd := s.StdDev()
	if sd == 0 {
		return true
	}
	zmin := (s.Min - s.Mean) / sd
	zmax := (s.Max - s.Mean) / sd
	if zmin < -stdevs && zmax > stdevs {
		return true
	}
	return zmax-zmin > 2*stdevs
}

// Confident is the slice form of ConfidentStream, for callers that hold
// a materialized series.
func (c ConfidenceTest) Confident(vals []float64) bool {
	var s Stream
	for _, v := range vals {
		s.Add(v)
	}
	return c.ConfidentStream(&s)
}

// Trial is one bootstrap observation: the metric vector produced by
// simulating a configuration on one random subset of the training data.
type Trial []float64

// BootstrapResult summarizes a finished bootstrap run.
type BootstrapResult struct {
	// Trials is the number of subsets that were simulated.
	Trials int
	// WorstCase holds, per metric, the maximum observed over all trials
	// (the paper records worst-case error degradation, response time and
	// cost).
	WorstCase []float64
	// Mean holds the per-metric mean over all trials, used to rank
	// configurations by expected objective value.
	Mean []float64
}

// bootstrapCore is the shared trial loop: draw a subset, simulate, fold
// the metric vector into per-metric streams, stop when every stream is
// confident. step may return the same backing slice every call.
func bootstrapCore(rng *xrand.RNG, n, sampleSize int, test ConfidenceTest, step func(subset []int) []float64) BootstrapResult {
	if sampleSize <= 0 || sampleSize > n {
		sampleSize = n
	}
	var streams []Stream
	subset := make([]int, sampleSize)
	trials := 0
	_, maxT := test.bounds()
	stdevs := NormPPF(test.Level)
	for {
		// Draw a uniform random subset (a with-replacement draw matches
		// numpy.random.choice as used in Fig. 7; FillIntn's paired
		// 32-bit reductions keep the draw cheap at bootstrap rates).
		rng.FillIntn(subset, n)
		vals := step(subset)
		trials++
		if streams == nil {
			streams = make([]Stream, len(vals))
		}
		for i, v := range vals {
			streams[i].Add(v)
		}
		done := true
		for i := range streams {
			if !test.confidentStreamZ(&streams[i], stdevs) {
				done = false
				break
			}
		}
		if done || trials >= maxT {
			break
		}
	}
	res := BootstrapResult{Trials: trials}
	res.WorstCase = make([]float64, len(streams))
	res.Mean = make([]float64, len(streams))
	for i := range streams {
		res.WorstCase[i] = streams[i].Max
		res.Mean[i] = streams[i].Mean
	}
	return res
}

// Bootstrap repeatedly invokes simulate on random subsets of size
// sampleSize drawn (with replacement across trials, without replacement
// within a trial) from a population of n items, until every metric
// passes the confidence test. Subset indices are provided to simulate.
//
// simulate must return the same number of metrics on every call.
func Bootstrap(rng *xrand.RNG, n, sampleSize int, test ConfidenceTest, simulate func(subset []int) Trial) BootstrapResult {
	return bootstrapCore(rng, n, sampleSize, test, func(subset []int) []float64 {
		return simulate(subset)
	})
}

// BootstrapStreams is the allocation-free form of Bootstrap for hot
// callers: the metric count is declared up front, simulate writes each
// trial's metrics into a reused out buffer, and the raw per-metric
// Stream accumulators come back unsummarized — each stream's N is the
// trial count, its Max the worst case, its Mean the across-trial mean.
// Apart from the fixed-size buffers allocated before the first trial,
// the loop performs no allocation.
// The loop body mirrors bootstrapCore with the step indirection
// removed — this is the Fig.-7 inner loop, run hundreds of times per
// candidate.
func BootstrapStreams(rng *xrand.RNG, n, sampleSize, nMetrics int, test ConfidenceTest, simulate func(subset []int, out []float64)) []Stream {
	if sampleSize <= 0 || sampleSize > n {
		sampleSize = n
	}
	streams := make([]Stream, nMetrics)
	out := make([]float64, nMetrics)
	subset := make([]int, sampleSize)
	trials := 0
	_, maxT := test.bounds()
	stdevs := NormPPF(test.Level)
	for {
		rng.FillIntn(subset, n)
		simulate(subset, out)
		trials++
		for i, v := range out {
			streams[i].Add(v)
		}
		done := true
		for i := range streams {
			if !test.confidentStreamZ(&streams[i], stdevs) {
				done = false
				break
			}
		}
		if done || trials >= maxT {
			break
		}
	}
	return streams
}
