// Package stats supplies the statistical machinery behind the Tolerance
// Tiers routing-rule generator: quantiles, streaming moments, the
// normal quantile function (ppf), bootstrap resampling, and the Fig.-7
// confidence test from the paper.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. The input need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Ring is a fixed-capacity sliding window of samples for off-path
// latency quantiles (fleet routing, canary arms): Add overwrites the
// oldest sample once full and never allocates. Not safe for concurrent
// use; build one with NewRing.
type Ring struct {
	buf []float64
	n   int // samples ever added
}

// NewRing returns a ring holding the most recent size samples.
func NewRing(size int) Ring { return Ring{buf: make([]float64, size)} }

// Add records one sample, displacing the oldest when the ring is full.
func (r *Ring) Add(x float64) {
	r.buf[r.n%len(r.buf)] = x
	r.n++
}

// Len is the number of samples currently held.
func (r *Ring) Len() int { return min(r.n, len(r.buf)) }

// Quantile is the q-quantile of the held samples (0 when empty).
func (r *Ring) Quantile(q float64) float64 {
	v, _ := Quantile(r.buf[:r.Len()], q) // the only error is the empty window
	return v
}

// NormPPF returns the quantile function (inverse CDF) of the standard
// normal distribution, the `ppf` used by the paper's Fig.-7 generator.
// The implementation is Acklam's rational approximation with one step of
// Halley refinement; absolute error is below 1e-9 over (0, 1).
func NormPPF(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step against the exact CDF.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// NormCDF returns the standard normal cumulative distribution function.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
