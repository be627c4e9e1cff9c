package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read off fewer samples is one outlier, not a tail.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs (NaN when
// empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9)) // tolerate p/100 rounding up (99.9% of 10000)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentile returns the highest whole percentile from top down to
// 50 that leaves at least minBeyond samples of n above it. Below 20
// samples no percentile qualifies and the median is returned.
func tailPercentile(n, top int) float64 {
	for p := top; p > 50; p-- {
		if n-rank(n, float64(p)) >= minBeyond {
			return float64(p)
		}
	}
	return 50
}

const (
	// opTailTop caps the end-to-end op_tail_ms at p90. Above it, a run's
	// tail is set by a handful of host stalls and differs from run to
	// run more than any bound allows; and where a pass mixes a few long
	// operations with many short ones (certify), a higher tail jumps
	// from one operation to another as the number of passes changes.
	opTailTop = 90
	// layerTailTop caps the per-layer request tails, which carry no
	// bound, at p99.
	layerTailTop = 99
)

// median returns the 50th percentile, interpolating between the middle
// pair of an even-sized sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads here match the ones a Python checker computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
