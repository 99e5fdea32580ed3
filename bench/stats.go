package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks. An empty sample has no quantile:
// the result is NaN, which the metric printer refuses to report.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5-quantile of an unsorted sample.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 0.5)
}

// mean is the arithmetic mean; NaN for an empty sample.
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

// ratio is num/den, or 0 when the denominator is 0 — a layer that saw no
// traffic on this workload reports 0, not NaN (JSON has no NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
