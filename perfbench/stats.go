package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for even lengths), or NaN for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPerMille are the candidate tail percentiles in tenths of a
// percent, highest first: p99.9, p99, p90, p50.
var tailPerMille = []int{999, 990, 900, 500}

// tailPercentile picks the highest percentile of n samples that still
// has at least ten samples beyond it, so a reported tail is never set
// by a handful of outliers. It returns 0 when even the median has fewer
// than ten samples above it.
func tailPercentile(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean returns the geometric mean of positive xs (0 for an empty
// slice or any non-positive value).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Unit conversions. Every reported metric passes through exactly one of
// these, so the unit printed next to a value is the unit it is in.
const (
	bytesPerMiB = 1 << 20
	nsPerMs     = 1e6
	nsPerUs     = 1e3
	nsPerSec    = 1e9
)

func toMiB(bytes float64) float64 { return bytes / bytesPerMiB }
func nsToMs(ns float64) float64   { return ns / nsPerMs }
func nsToUs(ns float64) float64   { return ns / nsPerUs }
func nsToSec(ns float64) float64  { return ns / nsPerSec }

// toMops converts operations per second to millions of operations per
// second.
func toMops(opsPerSec float64) float64 { return opsPerSec / 1e6 }
