package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read from fewer samples is one unlucky
// operation, not a percentile.
const minBeyond = 10

// tailLadder lists the tail percentiles a timing may report, highest
// first; summarize picks the first one the sample supports.
var tailLadder = []float64{99.9, 99, 90}

// summary is one timing sample reduced the way every timing of this
// benchmark is reported: its median, the highest ladder percentile with
// at least minBeyond samples beyond it, and the sample count.
type summary struct {
	N       int
	P50     float64
	TailPct float64 // 0 when no ladder percentile has minBeyond samples beyond it
	Tail    float64
}

// summarize reduces xs; it does not modify xs.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: n, P50: median(s)}
	for _, p := range tailLadder {
		if k := nearestRank(p, n); n-k >= minBeyond {
			out.TailPct, out.Tail = p, s[k-1]
			break
		}
	}
	return out
}

// percentile is the nearest-rank percentile p of xs, read at p whatever
// the sample size, for metrics whose name fixes the percentile. It does
// not modify xs; it is 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(nearestRank(p, len(s)), 1)-1]
}

// nearestRank is the 1-based rank of percentile p in n sorted samples.
// It works in tenths of a percent with integers, so that p99.9 of 10000
// samples is exactly rank 9990 rather than a rounding error above it.
func nearestRank(p float64, n int) int {
	tenths := int(math.Round(p * 10))
	return (tenths*n + 999) / 1000
}

// median of sorted s; the mean of the two middle samples when len(s) is
// even.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
