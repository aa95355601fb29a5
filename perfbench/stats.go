package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// in one pass; with fewer, the tail value is one or two outliers.
const minBeyond = 10

// quantile is one reported percentile of a pass's samples.
type quantile struct {
	Value  float64
	N      int // samples in the pass
	Beyond int // samples strictly above the percentile's rank
}

// Valid reports whether the percentile has at least minBeyond samples
// beyond it.
func (q quantile) Valid() bool { return q.Beyond >= minBeyond }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// samples: the value at rank ceil(p*n), so p=0.99 over 1000 samples is
// the 990th smallest and leaves exactly ten above it.
func percentile(samples []float64, p float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := rank(p, n)
	return quantile{Value: s[k], N: n, Beyond: n - 1 - k}
}

// rank is the 0-based nearest-rank index of the p-quantile of n samples.
func rank(p float64, n int) int {
	return max(0, min(int(math.Ceil(p*float64(n)-1e-9))-1, n-1))
}

// minSamplesFor is the smallest pass size whose p-quantile has
// minBeyond samples beyond it.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-1-rank(p, n) >= minBeyond {
			return n
		}
	}
}

// median is the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
