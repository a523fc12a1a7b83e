package xrand

// HasSumRows8 reports whether this host runs SumRows8's kernel: an amd64
// CPU with AVX2 whose operating system saves the YMM registers. It is
// read once, from CPUID and XGETBV, at package init.
var HasSumRows8 = hasAVX2()

// sumRows8AVX2 runs pairs (>= 1) of FillIntn's paired draws from the
// state at s, adding each drawn 64-byte row of tab into acc, and stores
// the advanced state back.
//
//go:noescape
func sumRows8AVX2(s *[4]uint64, tab *float64, n uint64, pairs int, acc *[8]float64)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (eax uint32)

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 { // XMM and YMM state both enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}
