package main

import (
	"math"
	"sort"
)

// rank returns the 1-based nearest rank of the p-quantile (0 < p ≤ 1) in
// n sorted samples: ⌈p·n⌉, clamped to [1, n].
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-quantile of xs and how many samples
// lie beyond it. xs is not modified.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	r := rank(p, len(s))
	return s[r-1], len(s) - r
}

// minSamples is the smallest sample count whose nearest-rank p-quantile has
// at least ten samples beyond it — the rule every reported percentile
// meets.
func minSamples(p float64) int {
	n := 1
	for n-rank(p, n) < 10 {
		n++
	}
	return n
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so repeatability reports match the acceptance arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
