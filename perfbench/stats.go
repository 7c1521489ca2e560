package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

func now() time.Time          { return time.Now() }
func since(t time.Time) int64 { return int64(time.Since(t)) }

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// pct returns the p-th percentile (nearest rank) of sorted samples.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(float64(len(sorted)) * p / 100))
	idx = min(max(idx, 1), len(sorted))
	return sorted[idx-1]
}

// tailMinBeyond is how many samples must lie above the reported tail
// percentile: a percentile estimated from fewer outliers is one sample's
// noise.
const tailMinBeyond = 10

// tail returns the highest whole percentile (at least the median) with
// tailMinBeyond samples beyond it, its value, and that sample count.
func tail(sorted []float64) (p int, v float64, beyond int) {
	n := len(sorted)
	for p = 99; p > 50; p-- {
		rank := int(math.Ceil(float64(n) * float64(p) / 100))
		if n-rank >= tailMinBeyond {
			return p, sorted[rank-1], n - rank
		}
	}
	rank := int(math.Ceil(float64(n) * 0.5))
	return 50, pct(sorted, 50), n - rank
}

// median returns the median of unsorted samples.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
