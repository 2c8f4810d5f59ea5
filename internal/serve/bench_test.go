package serve

import (
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
)

// Micro-benchmarks for the /sweep read path: admission (Points) on the
// two grid shapes of allocGrids, and a hot sweep of the cached paper
// grid through a real HTTP round trip. ReportAllocs keeps the path's
// allocation budget visible next to its time.

func BenchmarkPoints(b *testing.B) {
	for _, g := range allocGrids {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.req.Points("v", Limits{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.points), "ns/point")
		})
	}
}

// BenchmarkSweepHot replays the 270-point paper grid (2..16 FO4 over the
// whole suite) against a server that has already simulated it, so every
// iteration is parse, expand, key, store lookup and NDJSON stream.
func BenchmarkSweepHot(b *testing.B) {
	const body = `{"useful_min":2,"useful_max":16,"instructions":2000,"seed":5}`
	_, ts := newTestServer(b, Config{Workers: 2, Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	sweep := func() int {
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("sweep: status %d, err %v", resp.StatusCode, err)
		}
		return int(n)
	}
	sweep() // simulate the grid once, outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = sweep()
	}
	b.SetBytes(int64(n))
}
