package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the harness reports it: a tail estimate resting on fewer points
// is one slow request away from a different number.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted and
// whether at least minBeyond samples lie strictly beyond that rank. Callers
// emit an unsupported percentile only as a flagged fallback, never as a
// gated number.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-(idx+1) >= minBeyond
}

// median is the interpolated median of xs (0 for no samples). It does not
// modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile by the "exclusive" method
// Python's statistics.quantiles(values, n=4) uses, so -repeat prints the
// same spread the acceptance check computes. It needs two values at least.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the run-to-run
// noise figure a regression bound has to clear.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
