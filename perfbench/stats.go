package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p90 needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// minSamples returns the smallest sample count whose p-th percentile has
// minBeyond samples beyond it.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-rank(p, n) >= minBeyond {
			return n
		}
	}
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs. It fails when
// fewer than minBeyond samples lie beyond it, so no reported percentile
// rests on a handful of outliers.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	r := rank(p, n)
	if n-r < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p, minBeyond, n-r, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[r-1], nil
}

// median returns the middle of xs (mean of the two middles for even n).
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

// trimmedMean is the mean of xs without its lowest and highest cut share
// of samples (rounded down), so no single outlier moves it far.
func trimmedMean(xs []float64, cut float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(cut * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns Q1, median and Q3 of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spread report agrees with any external check made with that function.
// It needs at least two samples.
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
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// idleCoreShare is the share of the host's core-time during an operation
// that neither the engine nor trace generation used: 1 − busy /
// (procs × wall), clamped to [0, 1]. Timer noise can make busy exceed
// procs × wall by a hair; that reads as no idle time, not a negative one.
func idleCoreShare(busy, wall float64, procs int) float64 {
	if wall <= 0 || procs < 1 {
		return 0
	}
	v := 1 - busy/(float64(procs)*wall)
	return math.Max(0, math.Min(1, v))
}
