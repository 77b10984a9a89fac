package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted. A percentile of nothing is an error, never a NaN.
func percentile(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("percentile of zero samples")
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], nil
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the mean of the two middle values when the count is even.
func median(v []float64) (float64, error) {
	if len(v) == 0 {
		return 0, fmt.Errorf("median of zero samples")
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// tailPercentile picks the highest of 99, 99.9, 99.99 and 99.999 that still
// has at least ten samples beyond it, and its value.
func tailPercentile(sorted []float64) (pct, value float64) {
	pct = 99
	for _, p := range []float64{99.9, 99.99, 99.999} {
		if float64(len(sorted))*(1-p/100) >= 10 {
			pct = p
		}
	}
	value, _ = percentile(sorted, pct)
	return pct, value
}

// ratio is a/b, and 0 when there is no base: a per-layer figure of a layer
// the workload does not use reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
