package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a reported percentile must leave
// above it; a tail with fewer is noise from a handful of requests.
const minBeyond = 10

// median returns the middle of xs (the mean of the middle pair for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// xs. When fewer than minBeyond samples lie above that rank, it reports
// the highest percentile that still leaves minBeyond above it instead,
// and returns the percentile it used. ok is false when xs has too few
// samples for any percentile to qualify.
func percentile(xs []float64, p float64) (v, used float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n-1-i < minBeyond {
		i = n - 1 - minBeyond
		p = float64(i+1) / float64(n)
	}
	return sorted(xs)[i], p, true
}

// tailOr is percentile that falls back to the median when xs is too
// small for a qualified tail.
func tailOr(xs []float64, p float64) float64 {
	if v, _, ok := percentile(xs, p); ok {
		return v
	}
	return median(xs)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
