package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/exec"
	"repro/internal/fo4"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// allocBytes returns the bytes the heap allocated while fn ran, from
// runtime.MemStats.TotalAlloc. Callers are non-parallel tests, so the
// count is fn's own allocation plus runtime noise.
func allocBytes(fn func()) uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	fn()
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - before
}

// primeIdle leaves at least k entries on the idle list, each having run
// params on tr, so a measured call finds warm state for every borrower
// it can start whatever the scheduling of the calls before it was.
func primeIdle(k int, params []pipeline.Params, tr *trace.Trace) {
	idleScratch.mu.Lock()
	for len(idleScratch.free) < k {
		idleScratch.free = append(idleScratch.free, pipeline.NewBatchScratch())
	}
	entries := append([]*pipeline.BatchScratch(nil), idleScratch.free...)
	idleScratch.mu.Unlock()
	for _, bs := range entries {
		pipeline.RunBatch(params, tr, bs.Lanes(len(params)))
	}
}

// TestRepeatStudyBytesBounded pins long-lived worker state: once a study
// has run, an identical study on the cached traces reuses the idle
// list's lane state instead of rebuilding a hierarchy and arena set per
// lane, so its allocation stays under one fixed bound whatever the
// worker count.
func TestRepeatStudyBytesBounded(t *testing.T) {
	const bound = 256 << 10
	for _, workers := range []int{1, 4} {
		cfg := smallConfig()
		cfg.UsefulGrid = PaperGrid()
		cfg.Workers = workers
		first := DepthSweep(cfg)

		filled := first.Config
		params := make([]pipeline.Params, len(filled.UsefulGrid))
		for i, u := range filled.UsefulGrid {
			clk := fo4.Clock{Useful: u, Overhead: filled.Overhead}
			params[i] = pipeline.Params{Machine: filled.Machine, Timing: filled.Machine.Resolve(clk), Warmup: filled.Warmup}
		}
		primeIdle(workers, params, cachedTrace(filled.Benchmarks[0], filled.Instructions, filled.Seed, nil))

		var second SweepResult
		got := allocBytes(func() { second = DepthSweep(cfg) })
		t.Logf("workers=%d: repeat study allocates %d B", workers, got)
		if got > bound {
			t.Errorf("workers=%d: repeat study allocates %d B, want <= %d", workers, got, bound)
		}
		if fmt.Sprint(second.Points) != fmt.Sprint(first.Points) {
			t.Errorf("workers=%d: repeat study diverges from the first", workers)
		}
	}
}

// leakCall is one call of the reuse-leak sequence: a RunBatch lane set
// or a SimulateBatch point set, on one benchmark's trace of one length.
type leakCall struct {
	name  string
	bench string
	n     int
	run   func() ([]pipeline.Stats, error)
	want  []pipeline.Stats
}

// leakLanes is a deliberately heterogeneous RunBatch lane set on the
// n-instruction gcc trace: a depth sweep, a segmented window with and
// without pre-selection, naive window pipelining, an in-order lane, a
// doubled-L1 lane (a second cache geometry) and Cray-1S lanes (flat
// memory, a third geometry).
func leakLanes(n int) [][]pipeline.Params {
	at := func(m config.Machine, useful float64) pipeline.Params {
		clk := fo4.Clock{Useful: useful, Overhead: fo4.PaperOverhead}
		return pipeline.Params{Machine: m, Timing: m.Resolve(clk), Warmup: n / 5}
	}
	alpha := config.Alpha21264()
	var grid []pipeline.Params
	for _, u := range []float64{2, 4, 6, 8, 12, 16} {
		grid = append(grid, at(alpha, u))
	}
	seg := at(alpha, 6)
	seg.Machine.UnifiedWindow = 32
	seg.WindowStages = 4
	pre := seg
	pre.PreSelect = []int{5, 2, 1}
	naive := seg
	naive.NaivePipelining = true
	inorder := at(config.InOrder7Stage(), 8)
	bigL1 := at(alpha, 6)
	bigL1.Machine.Structures.DL1.CapacityBytes *= 2
	grid = append(grid, seg, pre, naive, inorder, bigL1)

	cray := config.Cray1SMemorySystem()
	return [][]pipeline.Params{
		grid,
		{at(cray, 4), at(cray, 6), at(cray, 8)},
		{at(cray, 6), at(alpha, 6), at(alpha, 8)},
		{bigL1},
	}
}

// leakCalls builds every call of the sequence on bench's n-instruction
// trace, each with its expected Stats from pipeline.RunWith on a fresh
// Scratch per lane.
func leakCalls(t *testing.T, bench string, n int) []leakCall {
	t.Helper()
	prof, _ := ProfileByName(bench)
	tr := cachedTrace(prof, n, 1, nil)
	oracle := func(params []pipeline.Params, tr *trace.Trace) []pipeline.Stats {
		out := make([]pipeline.Stats, len(params))
		for i, p := range params {
			out[i] = pipeline.RunWith(p, tr, pipeline.NewScratch())
		}
		return out
	}

	var calls []leakCall
	for i, params := range leakLanes(n) {
		params := params
		calls = append(calls, leakCall{
			name: fmt.Sprintf("RunBatch set %d", i), bench: bench, n: n,
			run:  func() ([]pipeline.Stats, error) { return runLanes(params, tr), nil },
			want: oracle(params, tr),
		})
	}
	pointSets := [][]PointOptions{
		{{Useful: 4}, {Useful: 6}, {Useful: 8}, {Useful: 8, Window: 32, WindowStages: 4}, {Useful: 8, Machine: "inorder"}},
		{{Useful: 6, Window: 32, WindowStages: 2}},
	}
	for i, opts := range pointSets {
		params := make([]pipeline.Params, len(opts))
		for j := range opts {
			opts[j].Benchmark, opts[j].Instructions, opts[j].Seed = bench, n, 1
			params[j] = opts[j].Normalize().params()
		}
		pts := resolveAll(t, opts...)
		calls = append(calls, leakCall{
			name: fmt.Sprintf("SimulateBatch set %d", i), bench: bench, n: n,
			run: func() ([]pipeline.Stats, error) {
				res, err := SimulateBatch(pts, nil)
				out := make([]pipeline.Stats, len(res))
				for j := range res {
					out[j] = res[j].Stats
				}
				return out, err
			},
			want: oracle(params, tr),
		})
	}
	return calls
}

// checkLeakCall runs c and compares every lane's Stats with the oracle's
// byte for byte, as JSON (which leaves out the batch counters).
func checkLeakCall(c leakCall) error {
	got, err := c.run()
	if err != nil {
		return fmt.Errorf("%s (%s, n=%d): %v", c.name, c.bench, c.n, err)
	}
	for i := range c.want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(c.want[i])
		if !bytes.Equal(g, w) {
			return fmt.Errorf("%s (%s, n=%d) lane %d: reused state diverges from a fresh Scratch:\n got %s\nwant %s", c.name, c.bench, c.n, i, g, w)
		}
	}
	return nil
}

// TestIdleScratchReuseDoesNotLeak is the reuse-leak guard for
// long-lived worker state: shuffled sequences of RunBatch and
// SimulateBatch calls — three cache geometries, flat memory, in-order and
// segmented-window lanes, two 20 000-instruction traces (gcc and swim,
// so state kept from the other trace of the same length shows) and then
// a 5 000-instruction one, so arenas shrink — run over the shared idle
// list, serially (every call reuses the same entry) and then
// concurrently, and every lane must equal pipeline.RunWith on a fresh
// Scratch byte for byte.
func TestIdleScratchReuseDoesNotLeak(t *testing.T) {
	long := append(leakCalls(t, "gcc", 20000), leakCalls(t, "swim", 20000)...)
	short := leakCalls(t, "gcc", 5000)
	for _, seed := range []int64{1, 2} {
		rng := rand.New(rand.NewSource(seed))
		shuffled := func(calls []leakCall) []leakCall {
			out := append([]leakCall(nil), calls...)
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		}
		seq := append(shuffled(long), shuffled(short)...)
		for _, c := range seq {
			if err := checkLeakCall(c); err != nil {
				t.Fatalf("seed %d, serial: %v", seed, err)
			}
		}

		mixed := shuffled(append(append([]leakCall(nil), long...), short...))
		errs, _ := exec.Map(exec.Pool{Workers: 3}, mixed, func(_ int, c leakCall) error {
			return checkLeakCall(c)
		})
		for _, err := range errs {
			if err != nil {
				t.Fatalf("seed %d, concurrent: %v", seed, err)
			}
		}
	}
}
