// Package xrand provides deterministic, splittable pseudo-random number
// generation for the Tolerance Tiers simulators.
//
// Every stochastic component of the reproduction (corpus synthesis,
// acoustic noise, bootstrap sampling, arrival processes) draws from an
// explicit *RNG seeded through this package, which makes every experiment
// bit-reproducible across runs and machines. The generator is
// xoshiro256** seeded via SplitMix64, the combination recommended by the
// xoshiro authors; streams derived with Split are statistically
// independent for our purposes.
package xrand

import "math"

// RNG is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; derive per-goroutine generators with Split.
type RNG struct {
	s [4]uint64
	// cached spare gaussian value (Box-Muller produces pairs)
	spare    float64
	hasSpare bool
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding so that closely related seeds still yield
// well-distributed xoshiro states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed initializes r in place from seed, producing exactly the stream
// New(seed) would. It exists for hot paths that seed a fresh generator
// per item (per-request jitter, per-inference residual noise): a local
// RNG value reseeded in place stays on the stack, where New's pointer
// return forces a heap allocation per call.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.spare, r.hasSpare = 0, false
}

// Split derives an independent child generator labelled by key. The
// parent's stream is unaffected, so components that split by stable keys
// stay reproducible regardless of the order in which other components
// consume randomness.
func (r *RNG) Split(key uint64) *RNG {
	// Mix the parent state with the key through SplitMix64.
	sm := r.s[0] ^ rotl(r.s[2], 17) ^ (key * 0x9e3779b97f4a7c15)
	c := &RNG{}
	for i := range c.s {
		c.s[i] = splitmix64(&sm)
	}
	if c.s[0]|c.s[1]|c.s[2]|c.s[3] == 0 {
		c.s[0] = 1
	}
	return c
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// FillIntn fills dst with near-uniform integers in [0, n), drawing two
// values from each Uint64 via 32-bit Lemire multiply-shift reductions
// (bias below n/2^32 — immaterial for any profile-matrix size, n < 2^31
// required and enforced). The Fig.-7 bootstrap uses this to draw whole
// subsets: half the generator advances of per-value Intn draws and no
// 64-bit modulo. The draw differs from Intn's for the same generator
// state, so the two are distinct deterministic streams; code whose
// historical draws must not change keeps Intn. It panics if n <= 0 or
// n >= 2^31.
//
// The pair loop runs Uint64's xoshiro256** step inline on the state held
// in locals (Uint64 does not inline into the loop, so through r.s every
// pair would load and store the state); the stream is exactly Uint64's.
func (r *RNG) FillIntn(dst []int, n int) {
	if n <= 0 || n >= 1<<31 {
		panic("xrand: FillIntn bound out of range")
	}
	un := uint64(n)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	i := 0
	for ; i+1 < len(dst); i += 2 {
		u := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		dst[i] = int((u >> 32) * un >> 32)
		dst[i+1] = int((u & 0xffffffff) * un >> 32)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	if i < len(dst) {
		dst[i] = int((r.Uint64() >> 32) * un >> 32)
	}
}

// Norm returns a standard normal variate (mean 0, stddev 1) using the
// Box-Muller transform.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// NormMS returns a normal variate with the given mean and stddev.
func (r *RNG) NormMS(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// LogNorm returns a log-normal variate where the underlying normal has
// the given mu and sigma.
func (r *RNG) LogNorm(mu, sigma float64) float64 {
	return math.Exp(r.NormMS(mu, sigma))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipf samples ranks in [0, n) following a Zipf distribution with
// exponent s (s > 0). Rank 0 is the most probable. The sampler is exact
// (inverse-CDF over precomputed cumulative weights) and is constructed
// once per distribution.
type Zipf struct {
	cum []float64 // cumulative probabilities, cum[n-1] == 1
}

// NewZipf builds a Zipf sampler over n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1
	return &Zipf{cum: cum}
}

// P returns the probability of rank i.
func (z *Zipf) P(i int) float64 {
	if i == 0 {
		return z.cum[0]
	}
	return z.cum[i] - z.cum[i-1]
}

// Sample draws one rank using r.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search for the first cumulative weight >= u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
