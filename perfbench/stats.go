package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 of fewer than 1000 samples would rest on fewer
// than ten observations.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean averages xs (0 for none).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the highest whole percentile p ≤ 99 whose
// nearest-rank position leaves at least minBeyond samples above it
// among n, or 50 when n is too small for any higher percentile.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-nearestRank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// nearestRank is the 1-based rank of the p-th percentile among n
// ascending samples: the smallest rank covering p percent of them.
func nearestRank(n, p int) int {
	k := int(math.Ceil(float64(p) / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// percentile returns the nearest-rank p-th percentile of xs (0 for no
// samples).
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(len(xs), p)-1]
}

// tail is the percentile reported as a run's latency tail: p99 once there
// are at least 1000 samples, else the highest one the samples support.
func tail(xs []float64) float64 { return percentile(xs, tailPercentile(len(xs))) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
