package xrand

import (
	"math"
	"testing"
)

// sumRows8Reference is SumRows8's contract written out: FillIntn, then a
// scalar sum of the drawn rows in draw order.
func sumRows8Reference(r *RNG, tab []float64, n, k int) [8]float64 {
	idx := make([]int, k)
	r.FillIntn(idx, n)
	var acc [8]float64
	for _, i := range idx {
		for l := range acc {
			acc[l] += tab[8*i+l]
		}
	}
	return acc
}

// sumRowsTable builds n rows of 8 lanes mixing ±0, subnormals, 1e16,
// -1e-16 and values from 1e-3 to 1e3, so a reordering of the adds shows
// in the low bits of the sums.
func sumRowsTable(seed uint64, n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1.5e-310, -2.2e-308, 1, -1, 0.1, 1e16, -1e-16}
	r := New(seed)
	tab := make([]float64, 8*n)
	for i := range tab {
		if r.Intn(4) == 0 {
			tab[i] = special[r.Intn(len(special))]
			continue
		}
		tab[i] = (r.Float64() - 0.25) * math.Pow(10, float64(r.Intn(7)-3))
	}
	return tab
}

// checkSumRows8 runs SumRows8 and the reference twice in a row from the
// same seed and compares every lane bit for bit, then the generator.
func checkSumRows8(t *testing.T, seed uint64, n, k int) {
	t.Helper()
	tab := sumRowsTable(seed^0x5eed, n)
	got, want := New(seed), New(seed)
	for call := 0; call < 2; call++ {
		g, w := got.SumRows8(tab, n, k), sumRows8Reference(want, tab, n, k)
		for l := range g {
			if math.Float64bits(g[l]) != math.Float64bits(w[l]) {
				t.Fatalf("k %d n %d call %d: lane %d = %v (%#x), want %v (%#x)",
					k, n, call, l, g[l], math.Float64bits(g[l]), w[l], math.Float64bits(w[l]))
			}
		}
		if *got != *want {
			t.Fatalf("k %d n %d call %d: state %+v, want %+v", k, n, call, *got, *want)
		}
	}
}

// sumRowsCases yields the table's (k, n) pairs: even and odd lengths
// around the sweep's 200-row sample, over one, seven and 2 000 rows.
func sumRowsCases(yield func(k, n int) bool) {
	for _, k := range []int{0, 1, 2, 199, 200, 201} {
		for _, n := range []int{1, 7, 2000} {
			if !yield(k, n) {
				return
			}
		}
	}
}

func TestSumRows8MatchesFillIntnAndScalarSum(t *testing.T) {
	if !HasSumRows8 {
		t.Skip("no SumRows8 kernel on this host")
	}
	for k, n := range sumRowsCases {
		checkSumRows8(t, uint64(k)*0x9e3779b97f4a7c15+uint64(n), n, k)
	}
}

func FuzzSumRows(f *testing.F) {
	if !HasSumRows8 {
		f.Skip("no SumRows8 kernel on this host")
	}
	for k, n := range sumRowsCases {
		f.Add(uint64(k)*0x9e3779b97f4a7c15+uint64(n), uint16(n), uint16(k))
	}
	f.Fuzz(func(t *testing.T, seed uint64, n, k uint16) {
		checkSumRows8(t, seed, max(1, int(n)%4096), int(k)%1024)
	})
}
