package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics. It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which the driver uses to judge run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the inter-quartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// durationsQuantile is the q-quantile of nanosecond samples, sorting ns
// in place.
func durationsQuantile(ns []uint32, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	pos := q * float64(len(ns)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(ns[lo]) + (float64(ns[hi])-float64(ns[lo]))*(pos-float64(lo))
}

// bestTenth is the mean of the best tenth (at least one) of xs.
func bestTenth(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) + 9) / 10
	if higherIsBetter {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
