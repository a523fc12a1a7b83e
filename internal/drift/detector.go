// Package drift closes the loop the paper leaves open: tolerance tiers
// are only as good as the profiles behind them, and cloud-API
// accuracy/latency distributions shift across model versions and over
// time. This package watches the dispatch runtime's live telemetry with
// online change detectors — per-tier Page–Hinkley and CUSUM tests over
// windowed task-error and response-latency means, plus a per-backend
// latency-quantile shift test against the profiled baseline — and, on a
// confirmed shift, signals the serving node to re-profile its backends
// and regenerate its routing tables in place.
//
// The detectors are sequential tests fed one value per telemetry window
// (not per request): the dispatch hot path only folds each outcome into
// a windowed accumulator under a per-tier mutex, which stays
// allocation-free once the tier is registered (the alloc-regression
// test in this package pins it, and BenchmarkDriftObserve gates it in
// CI).
package drift

import "math"

// PageHinkley is the two-sided Page–Hinkley sequential change-point
// test. Feed one observation at a time with Observe; it reports an
// alarm when the cumulative deviation from the running mean exceeds
// Lambda in either direction, tolerating drifts of up to Delta per
// observation. The zero value is usable once Delta/Lambda are set;
// Reset rewinds it for a new stream.
//
// The statistic is the classic one: after updating the running mean
// x̄_t, the increase branch accumulates m_t = Σ (x_i - x̄_i - δ) and
// alarms when m_t - min_s m_s > λ; the decrease branch mirrors it.
type PageHinkley struct {
	// Delta is the per-observation drift the test tolerates (same units
	// as the observations).
	Delta float64
	// Lambda is the alarm threshold on the cumulative statistic.
	Lambda float64
	// MinSamples gates alarms until the running mean has settled
	// (alarms never fire before this many observations).
	MinSamples int

	n       int64
	mean    float64
	up      float64
	upMin   float64
	down    float64
	downMax float64
}

// Observe folds one value into the test and reports whether the alarm
// condition holds after it.
func (p *PageHinkley) Observe(x float64) bool {
	p.n++
	p.mean += (x - p.mean) / float64(p.n)
	p.up += x - p.mean - p.Delta
	if p.up < p.upMin {
		p.upMin = p.up
	}
	p.down += x - p.mean + p.Delta
	if p.down > p.downMax {
		p.downMax = p.down
	}
	return p.Alarmed()
}

// Stat returns the current test statistic: the larger of the two
// directional excursions (compare against Lambda).
func (p *PageHinkley) Stat() float64 {
	s := p.up - p.upMin
	if d := p.downMax - p.down; d > s {
		s = d
	}
	return s
}

// Alarmed reports whether the alarm condition currently holds.
func (p *PageHinkley) Alarmed() bool {
	return p.n >= int64(p.MinSamples) && p.Stat() > p.Lambda
}

// N returns the number of observations folded so far.
func (p *PageHinkley) N() int64 { return p.n }

// Reset rewinds the test for a new stream, keeping its parameters.
func (p *PageHinkley) Reset() {
	p.n, p.mean = 0, 0
	p.up, p.upMin, p.down, p.downMax = 0, 0, 0, 0
}

// CUSUM is a two-sided standardized tabular CUSUM test with a
// self-starting baseline: the first Warmup observations estimate the
// in-control mean and standard deviation (Welford), which are then
// frozen so a later shift cannot absorb itself into the baseline.
// Subsequent observations are standardized against that baseline and
// accumulated with slack K; the test alarms when either cumulative sum
// exceeds H (both in baseline standard deviations).
type CUSUM struct {
	// K is the slack per observation in baseline standard deviations
	// (the test is most sensitive to shifts of about 2K).
	K float64
	// H is the alarm threshold in baseline standard deviations.
	H float64
	// Warmup is the number of observations that estimate the frozen
	// baseline; no alarms fire during warmup.
	Warmup int

	n          int64
	mean, m2   float64 // Welford accumulation during warmup
	mu0        float64
	sigma0     float64
	sPos, sNeg float64
}

// Observe folds one value into the test and reports whether the alarm
// condition holds after it.
func (c *CUSUM) Observe(x float64) bool {
	c.n++
	if c.n <= int64(c.Warmup) {
		d := x - c.mean
		c.mean += d / float64(c.n)
		c.m2 += d * (x - c.mean)
		if c.n == int64(c.Warmup) {
			c.mu0 = c.mean
			if c.n > 1 {
				c.sigma0 = math.Sqrt(c.m2 / float64(c.n-1))
			}
			// Floor the scale at a fraction of the baseline magnitude: a
			// constant warmup stream would otherwise divide by zero, and a
			// merely near-constant one (sigma orders of magnitude below
			// the mean) would standardize benign jitter into multi-sigma
			// alarms. The floor trades away sub-5%-of-mean shift
			// sensitivity for immunity to degenerate warmups.
			if floor := math.Max(math.Abs(c.mu0)*0.05, 1e-12); !(c.sigma0 > floor) {
				c.sigma0 = floor
			}
		}
		return false
	}
	z := (x - c.mu0) / c.sigma0
	c.sPos = math.Max(0, c.sPos+z-c.K)
	c.sNeg = math.Max(0, c.sNeg-z-c.K)
	return c.Alarmed()
}

// Stat returns the larger of the two cumulative sums (compare against
// H).
func (c *CUSUM) Stat() float64 { return math.Max(c.sPos, c.sNeg) }

// Alarmed reports whether the alarm condition currently holds.
func (c *CUSUM) Alarmed() bool {
	return c.n > int64(c.Warmup) && c.Stat() > c.H
}

// N returns the number of observations folded so far.
func (c *CUSUM) N() int64 { return c.n }

// Baseline returns the frozen in-control mean and standard deviation
// (zero until warmup completes).
func (c *CUSUM) Baseline() (mu, sigma float64) { return c.mu0, c.sigma0 }

// Reset rewinds the test — including its frozen baseline — for a new
// stream, keeping its parameters.
func (c *CUSUM) Reset() {
	c.n, c.mean, c.m2 = 0, 0, 0
	c.mu0, c.sigma0 = 0, 0
	c.sPos, c.sNeg = 0, 0
}

// QuantileShift tests an observed latency quantile against a profiled
// baseline: it alarms after Strikes consecutive observations above
// Baseline*(1+Ratio). A zero Baseline disables the test (no profiled
// reference to compare against).
type QuantileShift struct {
	// Baseline is the profiled reference quantile (same units as the
	// observations; the monitor uses nanoseconds).
	Baseline float64
	// Ratio is the tolerated relative excess (0.5 = alarm beyond +50%).
	Ratio float64
	// Strikes is the number of consecutive breaches required.
	Strikes int

	strikes int
	last    float64
}

// Observe folds one observed quantile (NaN observations — no estimate
// yet — are ignored) and reports whether the alarm condition holds.
func (q *QuantileShift) Observe(observed float64) bool {
	if math.IsNaN(observed) || q.Baseline <= 0 {
		return false
	}
	q.last = observed
	if observed > q.Baseline*(1+q.Ratio) {
		q.strikes++
	} else {
		q.strikes = 0
	}
	return q.Alarmed()
}

// Alarmed reports whether the alarm condition currently holds.
func (q *QuantileShift) Alarmed() bool {
	return q.Strikes > 0 && q.strikes >= q.Strikes
}

// Last returns the most recent non-NaN observation (0 before any).
func (q *QuantileShift) Last() float64 { return q.last }

// Reset clears the strike count (the baseline is configuration, not
// state).
func (q *QuantileShift) Reset() { q.strikes, q.last = 0, 0 }
