package main

import (
	"math"

	"sliceaware/internal/stats"
)

// tailLadder lists the percentiles the harness may report as "the tail",
// highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it in a sample of n. Below twenty samples no
// percentile qualifies and the maximum (100) is reported instead, which the
// result document states next to the value.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= 10 {
			return p
		}
	}
	return 100
}

// rankOf is the nearest-rank index (1-based) of percentile p in n samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile of an ascending sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// median returns the middle of xs (mean of the two middles when even)
// without reordering the caller's slice, and 0 for an empty one: a result
// document cannot carry stats.Percentile's NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 50)
}

// Summary is one metric over a workload's repeats: the median is the value
// the metric reports, min/max/n say how much the repeats disagreed.
type Summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) Summary {
	s := Summary{Median: median(xs), N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
