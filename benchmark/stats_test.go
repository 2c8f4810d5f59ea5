package main

import "testing"

// ramp returns the samples 1, 2, ..., n in reverse order, so summarize
// must sort them.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestSummarizeReportsHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p50      float64
		tailPct  float64
		tailRank int // 1-based rank of the reported tail sample
	}{
		{n: 0},
		{n: 1, p50: 1},
		{n: 19, p50: 10}, // p90 would leave 1 sample beyond it
		{n: 99, p50: 50}, // p90 rank 90 leaves 9 beyond: not enough
		{n: 100, p50: 50.5, tailPct: 90, tailRank: 90},
		{n: 999, p50: 500, tailPct: 90, tailRank: 900},
		{n: 1000, p50: 500.5, tailPct: 99, tailRank: 990},
		{n: 10000, p50: 5000.5, tailPct: 99.9, tailRank: 9990},
	} {
		got := summarize(ramp(tc.n))
		if got.N != tc.n || got.P50 != tc.p50 || got.TailPct != tc.tailPct {
			t.Errorf("n=%d: got N=%d p50=%v tail p%v, want p50=%v tail p%v",
				tc.n, got.N, got.P50, got.TailPct, tc.p50, tc.tailPct)
			continue
		}
		if tc.tailPct == 0 {
			continue
		}
		if got.Tail != float64(tc.tailRank) {
			t.Errorf("n=%d: p%v = %v, want the rank-%d sample", tc.n, tc.tailPct, got.Tail, tc.tailRank)
		}
		if beyond := tc.n - tc.tailRank; beyond < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond it", tc.n, tc.tailPct, beyond)
		}
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("summarize reordered its input: %v", xs)
	}
}

func TestPercentileIsPinned(t *testing.T) {
	// The same percentile is read at every sample size, including sizes
	// where summarize would report a higher tail.
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 1}, {10, 9}, {100, 90}, {1000, 900}, {10000, 9000}} {
		if got := percentile(ramp(tc.n), 90); got != tc.want {
			t.Errorf("p90 of 1..%d = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("p90 of no samples = %v, want 0", got)
	}
}
