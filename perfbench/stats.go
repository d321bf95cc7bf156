package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have above
// it; fewer, and the percentile is refused rather than read off a handful
// of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th quantile (0 < p < 1) of xs. It
// refuses (error) when fewer than minBeyond samples lie beyond the rank.
// xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p*100, minBeyond, n-rank, n)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median is the middle value (mean of the two middle ones for even n); 0
// for no samples.
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
