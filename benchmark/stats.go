package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the exact nearest-rank percentile of the samples: the
// smallest sample with at least p percent of the samples at or below
// it. It sorts a copy, so callers keep their arrival order; an empty
// input reads 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// ms converts raw latencies to float milliseconds for percentile.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is a/b, reading 0 for an empty denominator so an absent layer
// reports 0 rather than NaN (NaN is not JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
