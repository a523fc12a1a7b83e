package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("seed 0 generator produced too many repeats: %d distinct of 64", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("children with different keys produced the same first value")
	}
	// Splitting must not disturb the parent's stream.
	p1 := New(7)
	_ = p1.Split(1)
	_ = p1.Split(2)
	p2 := New(7)
	for i := 0; i < 100; i++ {
		if got, want := p1.Uint64(), p2.Uint64(); got != want {
			t.Fatalf("parent stream perturbed by Split at step %d", i)
		}
	}
}

func TestSplitSameKeySameStream(t *testing.T) {
	a := New(9).Split(5)
	b := New(9).Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-key children diverged at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(4)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(6)
	const n, rate = 200000, 2.0
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exponential mean %v too far from %v", mean, 1/rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestZipfProbabilitiesSumToOne(t *testing.T) {
	const n = 50
	z := NewZipf(n, 1.1)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += z.P(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf probabilities sum to %v", sum)
	}
}

func TestZipfRankOrdering(t *testing.T) {
	const n = 100
	z := NewZipf(n, 1.0)
	for i := 1; i < n; i++ {
		if z.P(i) > z.P(i-1)+1e-12 {
			t.Fatalf("Zipf rank %d more probable than rank %d", i, i-1)
		}
	}
}

func TestZipfEmpiricalSkew(t *testing.T) {
	z := NewZipf(1000, 1.2)
	r := New(10)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] < counts[500]*10 {
		t.Fatalf("Zipf sampler not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
}

func TestZipfSampleInRangeQuick(t *testing.T) {
	z := NewZipf(37, 0.9)
	r := New(12)
	f := func(_ uint32) bool {
		v := z.Sample(r)
		return v >= 0 && v < 37
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// fillIntnReference is FillIntn's draw rule written as a loop over
// Uint64 pairs: the reference the inlined generator step must reproduce.
func fillIntnReference(r *RNG, dst []int, n int) {
	un := uint64(n)
	i := 0
	for ; i+1 < len(dst); i += 2 {
		u := r.Uint64()
		dst[i] = int((u >> 32) * un >> 32)
		dst[i+1] = int((u & 0xffffffff) * un >> 32)
	}
	if i < len(dst) {
		dst[i] = int((r.Uint64() >> 32) * un >> 32)
	}
}

// FillIntn must draw exactly the reference's values and leave the
// generator in exactly the reference's state, for even and odd lengths
// and bounds up to the largest allowed. The second call of each case
// starts from the state the first one left behind.
func TestFillIntnMatchesUint64Pairs(t *testing.T) {
	for _, length := range []int{0, 1, 2, 199, 200, 201} {
		for _, n := range []int{1, 7, 2000, 1<<31 - 1} {
			seed := uint64(length)*0x9e3779b97f4a7c15 + uint64(n)
			got, want := New(seed), New(seed)
			dg, dw := make([]int, length), make([]int, length)
			for call := 0; call < 2; call++ {
				got.FillIntn(dg, n)
				fillIntnReference(want, dw, n)
				for i := range dw {
					if dg[i] != dw[i] {
						t.Fatalf("len %d n %d call %d: dst[%d] = %d, want %d", length, n, call, i, dg[i], dw[i])
					}
				}
				if *got != *want {
					t.Fatalf("len %d n %d call %d: state %+v, want %+v", length, n, call, *got, *want)
				}
			}
		}
	}
}
