package serve

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
)

func TestPointsExpansionOrderAndDedup(t *testing.T) {
	// The same depth twice and two spellings of one benchmark collapse
	// onto single points; order is useful x stages x benchmark.
	req := SweepRequest{
		Useful:     []float64{8, 8, 6},
		Benchmarks: []string{"gcc", "176.gcc", "swim"},
	}
	pts, keys, err := req.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 || len(keys) != 4 {
		t.Fatalf("got %d points, want 4 (2 depths x 2 distinct benchmarks)", len(pts))
	}
	want := []struct {
		useful float64
		bench  string
	}{
		{8, "176.gcc"}, {8, "171.swim"}, {6, "176.gcc"}, {6, "171.swim"},
	}
	for i, w := range want {
		if pts[i].Useful != w.useful || pts[i].Benchmark != w.bench {
			t.Errorf("point %d = (%g, %s), want (%g, %s)",
				i, pts[i].Useful, pts[i].Benchmark, w.useful, w.bench)
		}
		if keys[i] != pts[i].Key("v") {
			t.Errorf("keys[%d] does not match pts[%d].Key", i, i)
		}
	}
}

func TestPointsNilAndEmptyBenchmarksMeanFullSuite(t *testing.T) {
	nilReq := SweepRequest{Useful: []float64{8}}
	emptyReq := SweepRequest{Useful: []float64{8}, Benchmarks: []string{}}
	nilPts, nilKeys, err := nilReq.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	emptyPts, emptyKeys, err := emptyReq.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nilPts) != len(core.BenchmarkNames()) {
		t.Fatalf("nil benchmarks expanded to %d points, want the full suite (%d)",
			len(nilPts), len(core.BenchmarkNames()))
	}
	if len(nilPts) != len(emptyPts) {
		t.Fatalf("nil (%d points) and empty (%d points) benchmark lists differ", len(nilPts), len(emptyPts))
	}
	for i := range nilKeys {
		if nilKeys[i] != emptyKeys[i] {
			t.Fatalf("key %d differs between nil and empty benchmark lists", i)
		}
	}
}

func TestPointsRangeForm(t *testing.T) {
	req := SweepRequest{UsefulMin: 2, UsefulMax: 8, UsefulStep: 2, Benchmarks: []string{"gcc"}}
	pts, _, err := req.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, p := range pts {
		got = append(got, p.Useful)
	}
	want := []float64{2, 4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("range expanded to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range expanded to %v, want %v", got, want)
		}
	}
}

// TestPointsRangeEndpointIncluded pins index-based grid generation: a
// fractional step must not drift past (and silently drop) the inclusive
// endpoint, and the values must be reproducible run to run.
func TestPointsRangeEndpointIncluded(t *testing.T) {
	req := SweepRequest{UsefulMin: 2, UsefulMax: 16, UsefulStep: 0.1, Benchmarks: []string{"gcc"}}
	pts, _, err := req.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 141 {
		t.Fatalf("2..16 by 0.1 expanded to %d points, want 141", len(pts))
	}
	if first, last := pts[0].Useful, pts[len(pts)-1].Useful; first != 2 || last != 16 {
		t.Fatalf("grid spans [%g, %g], want [2, 16] inclusive", first, last)
	}
	again, _, err := req.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i].Useful != again[i].Useful {
			t.Fatalf("point %d not reproducible: %g vs %g", i, pts[i].Useful, again[i].Useful)
		}
	}
}

// TestPointsRangeBoundedBeforeExpansion is the admission-DoS contract:
// a hostile min/max/step combination must be rejected by arithmetic on
// the range itself — never by iterating it. Each case must return an
// error promptly without allocating the grid.
func TestPointsRangeBoundedBeforeExpansion(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		req  SweepRequest
	}{
		// A denormal step never advances min (1 + 5e-324 == 1): the old
		// accumulation loop span forever.
		{"step smaller than one ULP", SweepRequest{UsefulMin: 1, UsefulMax: 64, UsefulStep: 5e-324}},
		// A huge max used to iterate (and append) until OOM; now it must
		// fail the per-point Useful bound before any expansion.
		{"max beyond the point bound", SweepRequest{UsefulMin: 1, UsefulMax: 1e18}},
		// In-bounds endpoints whose count still exceeds the point limit.
		{"too many points", SweepRequest{UsefulMin: 1, UsefulMax: 64, UsefulStep: 1e-9}},
		{"NaN min", SweepRequest{UsefulMin: nan, UsefulMax: 8}},
		{"NaN max", SweepRequest{UsefulMin: 2, UsefulMax: nan}},
		{"NaN step", SweepRequest{UsefulMin: 2, UsefulMax: 8, UsefulStep: nan}},
		{"negative step", SweepRequest{UsefulMin: 2, UsefulMax: 8, UsefulStep: -1}},
	}
	for _, c := range cases {
		c.req.Benchmarks = []string{"gcc"}
		if _, _, err := c.req.Points("v", Limits{MaxPoints: 1024}); err == nil {
			t.Errorf("%s: expansion did not error", c.name)
		}
	}
}

func TestPointsSegmentedWindows(t *testing.T) {
	req := SweepRequest{
		Useful:       []float64{8},
		Benchmarks:   []string{"gcc"},
		Window:       32,
		WindowStages: []int{1, 2, 4},
	}
	pts, keys, err := req.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3 window-stage configs", len(pts))
	}
	seen := map[string]bool{}
	for i, p := range pts {
		if p.Window != 32 {
			t.Errorf("point %d window = %d, want 32", i, p.Window)
		}
		if seen[keys[i]] {
			t.Errorf("window-stage configs collided on key %s", keys[i])
		}
		seen[keys[i]] = true
	}
}

func TestPointsLimits(t *testing.T) {
	req := SweepRequest{Useful: []float64{2, 4, 6}, Benchmarks: []string{"gcc"}}
	if _, _, err := req.Points("v", Limits{MaxPoints: 2}); err == nil {
		t.Error("expansion past MaxPoints did not error")
	}
	req = SweepRequest{Useful: []float64{8}, Benchmarks: []string{"gcc"}, Instructions: 50_000}
	if _, _, err := req.Points("v", Limits{MaxInstructions: 10_000}); err == nil {
		t.Error("instructions past MaxInstructions did not error")
	}
	if _, _, err := req.Points("v", Limits{MaxInstructions: 50_000}); err != nil {
		t.Errorf("instructions at the limit errored: %v", err)
	}
}

func TestPointsCodeVersionChangesKeys(t *testing.T) {
	req := SweepRequest{Useful: []float64{8}, Benchmarks: []string{"gcc"}}
	_, k1, err := req.Points("v1", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := req.Points("v2", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if k1[0] == k2[0] {
		t.Error("cache key ignores the code version")
	}
}

// allocGrids are the two admission shapes the serving path sees most: a
// small client grid and the paper's full Figure 5 grid (2..16 FO4 over
// all 18 benchmarks).
var allocGrids = []struct {
	name   string
	req    SweepRequest
	points int
}{
	{"8-point", SweepRequest{Useful: []float64{4, 6, 8, 10}, Benchmarks: []string{"gcc", "swim"}, Instructions: 20000, Seed: 7}, 8},
	{"270-point", SweepRequest{UsefulMin: 2, UsefulMax: 16, Instructions: 20000, Seed: 7}, 270},
}

// TestPointsAllocationsPerPoint bounds what admission's expansion
// (points, the path /sweep runs) allocates per point: the key string
// plus the point list and dedup set, both sized from the grid, on both
// grid shapes.
func TestPointsAllocationsPerPoint(t *testing.T) {
	for _, g := range allocGrids {
		run := func() {
			if pts, err := g.req.points("v", Limits{}); err != nil || len(pts) != g.points {
				t.Fatalf("%s: %d points, err %v; want %d", g.name, len(pts), err, g.points)
			}
		}
		const runs = 20
		allocs := testing.AllocsPerRun(runs, run) / float64(g.points)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(g.points)
		if allocs > 2 || bytes > 384 {
			t.Errorf("%s: points costs %.2f allocs and %.0f B per point, want <= 2 and <= 384", g.name, allocs, bytes)
		}
	}
}
