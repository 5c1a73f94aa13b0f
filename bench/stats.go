package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted; 0 for an empty sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// quartiles returns the cut points Python's
// statistics.quantiles(values, n=4) gives (the default, exclusive
// method), which is what the acceptance driver computes spreads with.
// It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := slices.Clone(values)
	slices.Sort(data)
	n := len(data)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value (mean of the middle two for an even
// count); 0 for an empty sample.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := slices.Clone(values)
	slices.Sort(data)
	n := len(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a delta has to exceed to mean anything. It is 0
// when fewer than two values are recorded.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// ratio is a/b, and 0 when b is 0 (a layer that did nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }
