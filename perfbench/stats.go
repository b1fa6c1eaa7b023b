package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail read from fewer samples moves with every run.
const minBeyond = 10

// beyond returns how many of n samples lie strictly above the pct-th
// percentile under the nearest-rank definition used by percentile.
func beyond(n int, pct float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, pct)
}

// tailOK reports whether n samples support the pct-th percentile.
func tailOK(n int, pct float64) bool { return beyond(n, pct) >= minBeyond }

// rank is the 1-based nearest-rank position of the pct-th percentile.
func rank(n int, pct float64) int {
	r := int(math.Ceil(pct / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank pct-th percentile of xs, or 0
// for no samples. xs is not modified.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), pct)-1]
}

// median returns the middle of xs, averaging the two middle values of
// an even count, or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
