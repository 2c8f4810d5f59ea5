package core

import (
	"strings"
	"testing"

	"repro/internal/fo4"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// TestSimulateBatchMatchesRunWith pins the serving layer's batch entry
// point against the per-lane engine: every lane of a mixed grid over one
// trace must match pipeline.RunWith on that lane's own parameters field
// for field once the batch accounting counters (which never reach the
// wire) are cleared.
func TestSimulateBatchMatchesRunWith(t *testing.T) {
	opts := []PointOptions{
		{Benchmark: "gcc", Useful: 4, Instructions: 5000},
		{Benchmark: "gcc", Useful: 6, Instructions: 5000},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000, Window: 32, WindowStages: 4},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000, Machine: "inorder"},
	}
	got, err := SimulateBatch(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(opts) {
		t.Fatalf("got %d results for %d lanes", len(got), len(opts))
	}
	sc := pipeline.NewScratch()
	for i, o := range opts {
		o = o.Normalize()
		prof, _ := ProfileByName(o.Benchmark)
		tr := cachedTrace(prof, o.Instructions, o.Seed, nil)
		p, clk := o.params()
		want := pointResult(pipeline.RunWith(p, tr, sc), tr, clk)
		g := got[i]
		g.Stats.BatchLanes, g.Stats.BatchSharedDecode = 0, 0
		if g != want {
			t.Errorf("lane %d: batched point diverges from RunWith:\n got %+v\nwant %+v", i, g, want)
		}
	}
}

// TestSimulateBatchRejectsMixedTraces: a batch shares one generated
// trace by contract; lanes naming another benchmark, instruction count
// or seed must be refused, not silently merged.
func TestSimulateBatchRejectsMixedTraces(t *testing.T) {
	base := PointOptions{Benchmark: "gcc", Useful: 6, Instructions: 5000}
	for _, bad := range []PointOptions{
		{Benchmark: "swim", Useful: 8, Instructions: 5000},
		{Benchmark: "gcc", Useful: 8, Instructions: 6000},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000, Seed: 7},
	} {
		if _, err := SimulateBatch([]PointOptions{base, bad}, nil); err == nil {
			t.Errorf("mixed batch %+v accepted, want error", bad)
		} else if !strings.Contains(err.Error(), "shares one trace") {
			t.Errorf("mixed batch error %q does not name the contract", err)
		}
	}
	// Invalid lanes are caught before any simulation, tagged by index.
	if _, err := SimulateBatch([]PointOptions{base, {Benchmark: "nope", Useful: 6}}, nil); err == nil {
		t.Error("invalid lane accepted")
	}
	// An empty batch is a no-op, not an error.
	if out, err := SimulateBatch(nil, nil); err != nil || out != nil {
		t.Errorf("empty batch: out=%v err=%v", out, err)
	}
}

// TestDepthSweepBatchedMatchesUnbatched is the engine-level equivalence
// oracle: every cell of a batched DepthSweep must equal an unbatched
// pipeline.RunWith of that cell's (params, trace), built here in the
// test, modulo the batch accounting counters — at more than one worker
// count.
func TestDepthSweepBatchedMatchesUnbatched(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := smallConfig()
		cfg.Workers = workers
		got := DepthSweep(cfg)
		cfg = got.Config // filled: warmup, seed and tech resolved

		sc := pipeline.NewScratch()
		sawBatch := false
		for pi, pt := range got.Points {
			clk := fo4.Clock{Useful: pt.Useful, Overhead: cfg.Overhead}
			p := pipeline.Params{Machine: cfg.Machine, Timing: cfg.Machine.Resolve(clk), Warmup: cfg.Warmup}
			for ti, prof := range cfg.Benchmarks {
				tr := cachedTrace(prof, cfg.Instructions, cfg.Seed, nil)
				st := pipeline.RunWith(p, tr, sc)
				want := BenchPoint{Name: tr.Name, Group: tr.Group, IPC: st.IPC,
					BIPS: metrics.BIPS(st.IPC, clk.FrequencyHz(cfg.Tech)), Stats: st}

				b := pt.PerBench[ti]
				if b.Stats.BatchLanes > 0 {
					sawBatch = true
				}
				b.Stats.BatchLanes, b.Stats.BatchSharedDecode = 0, 0
				if b != want {
					t.Errorf("workers=%d point %d (%g FO4) %s: sweep cell diverges from RunWith:\n got %+v\nwant %+v",
						workers, pi, pt.Useful, tr.Name, b, want)
				}
			}
		}
		if !sawBatch {
			t.Errorf("workers=%d: sweep set no batch counters — did the grid batch at all?", workers)
		}
	}
}
