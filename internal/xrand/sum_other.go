//go:build !amd64

package xrand

// HasSumRows8 reports whether this host runs SumRows8's kernel; there is
// none outside amd64.
const HasSumRows8 = false

func sumRows8AVX2(*[4]uint64, *float64, uint64, int, *[8]float64) {
	panic("xrand: no SumRows8 kernel on this GOARCH")
}
