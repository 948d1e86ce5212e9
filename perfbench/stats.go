package main

import (
	"math"
	"sort"
)

// quantile is one order statistic of a sample together with the sample
// count it was taken over, so a reader can tell a p90 of 120 jobs from a
// p90 of 3.
type quantile struct {
	Value float64
	N     int
}

// percentile returns the nearest-rank p-quantile (p in (0,1]) of xs: the
// smallest sample such that at least a share p of the samples are <= it.
// An empty sample yields NaN with N = 0. xs is not modified.
func percentile(xs []float64, p float64) quantile {
	if len(xs) == 0 {
		return quantile{Value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return quantile{Value: s[rank], N: len(s)}
}

// median is the 0.5 nearest-rank percentile's value; for an even count it
// averages the two middle samples instead, so two-run medians do not
// simply report the faster run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (a counter that never fired).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
