// Package core implements the paper's primary contribution as a library:
// the pipeline-depth optimization methodology. It sweeps the useful logic
// per pipeline stage across a grid of clock design points, resolves every
// structure and operation latency at each point (Table 3), simulates the
// SPEC 2000 workload suite on the in-order or out-of-order machine, and
// locates the performance-optimal clock. On top of the basic sweep it
// provides the paper's follow-on studies: overhead sensitivity (Figure 6),
// structure-capacity optimization (Figure 7), critical-loop sensitivity
// (Figure 8), and the segmented instruction window evaluation (Section 5).
package core

import (
	"context"
	"sort"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// NoWarmup requests an explicitly empty warmup window: every instruction
// counts toward the reported IPC. (Warmup 0 is the zero value and keeps
// its historical meaning of "default 20%".)
const NoWarmup = -1

// SweepConfig configures a depth sweep.
type SweepConfig struct {
	Machine  config.Machine
	Overhead fo4.Overhead // per-stage clocking overhead (Table 1)
	Tech     fo4.Tech     // technology for absolute frequencies

	// UsefulGrid lists the t_useful values (FO4) to evaluate; when nil the
	// paper's 2..16 grid is used.
	UsefulGrid []float64

	// Benchmarks to run; nil means the full SPEC 2000 suite of Table 2.
	Benchmarks []trace.Profile

	Instructions int // dynamic instructions per benchmark (default 60k)

	// Warmup is the number of leading instructions excluded from IPC:
	// 0 means the default 20% of Instructions, NoWarmup (-1) means none.
	Warmup int

	Seed uint64 // trace generation seed

	// Workers sizes the simulation worker pool: 0 means GOMAXPROCS,
	// 1 reproduces the historical serial path bit-for-bit.
	Workers int

	// Context, when non-nil, cancels a running study early. A cancelled
	// study returns promptly with incomplete results; callers that cancel
	// should discard the result and check Context.Err().
	Context context.Context

	// Obs, when non-nil, receives telemetry for this sweep: per-task
	// durations and queue wait through the executor's hooks, plus
	// trace-cache and simulation counters. Telemetry is observation-only —
	// results are byte-for-byte identical with Obs nil or set.
	Obs *obs.Recorder
}

func (c *SweepConfig) fill() {
	if c.UsefulGrid == nil {
		c.UsefulGrid = PaperGrid()
	}
	if c.Benchmarks == nil {
		c.Benchmarks = trace.SPEC2000()
	}
	if c.Instructions == 0 {
		c.Instructions = 60000
	}
	switch {
	case c.Warmup == 0:
		c.Warmup = c.Instructions / 5
	case c.Warmup < 0: // NoWarmup
		c.Warmup = 0
	}
	if c.Tech == (fo4.Tech{}) {
		c.Tech = fo4.Tech100nm
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// PaperGrid returns the paper's t_useful grid: 2 through 16 FO4.
func PaperGrid() []float64 {
	g := make([]float64, 0, 15)
	for u := 2.0; u <= 16; u++ {
		g = append(g, u)
	}
	return g
}

// BenchPoint is one benchmark's result at one clock point.
type BenchPoint struct {
	Name  string
	Group trace.Group
	IPC   float64
	BIPS  float64
	Stats pipeline.Stats
}

// SweepPoint is one clock design point of a sweep.
type SweepPoint struct {
	Useful float64
	Clock  fo4.Clock
	FreqHz float64

	PerBench []BenchPoint

	// Harmonic-mean BIPS per group and over every benchmark — the
	// aggregates the paper's figures plot.
	GroupBIPS map[trace.Group]float64
	AllBIPS   float64
}

// SweepResult is a completed depth sweep.
type SweepResult struct {
	Config SweepConfig
	Points []SweepPoint
}

// DepthSweep runs the Section 3/4 experiment: simulate every benchmark at
// every clock point and aggregate. Traces are generated once and replayed
// at every point, as the paper replays each benchmark binary; the whole
// (clock point × benchmark) grid runs on the worker pool.
func DepthSweep(cfg SweepConfig) SweepResult {
	cfg.fill()
	traces := cfg.traces()
	specs := make([]pointSpec, len(cfg.UsefulGrid))
	for i, useful := range cfg.UsefulGrid {
		specs[i] = cfg.pointSpecFor(useful, nil)
	}
	return SweepResult{Config: cfg, Points: runPoints(cfg, specs, traces)}
}

// GroupSeries extracts the BIPS series for one group across the sweep.
func (r SweepResult) GroupSeries(g trace.Group) []float64 {
	out := make([]float64, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.GroupBIPS[g]
	}
	return out
}

// AllSeries extracts the all-benchmark harmonic-mean BIPS series.
func (r SweepResult) AllSeries() []float64 {
	out := make([]float64, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.AllBIPS
	}
	return out
}

// OptimalUseful returns the t_useful with the highest group BIPS.
func (r SweepResult) OptimalUseful(g trace.Group) float64 {
	return r.Points[metrics.ArgMax(r.GroupSeries(g))].Useful
}

// OptimalUsefulAll returns the t_useful with the highest overall BIPS.
func (r SweepResult) OptimalUsefulAll() float64 {
	return r.Points[metrics.ArgMax(r.AllSeries())].Useful
}

// NearOptimalUseful returns the deepest (smallest t_useful) point whose
// group BIPS is within frac of the maximum — a plateau-tolerant optimum
// that matches how the paper reads its fairly flat curves.
func (r SweepResult) NearOptimalUseful(g trace.Group, frac float64) float64 {
	series := r.GroupSeries(g)
	best := series[metrics.ArgMax(series)]
	type cand struct{ useful, bips float64 }
	var cands []cand
	for i, p := range r.Points {
		if series[i] >= best*(1-frac) {
			cands = append(cands, cand{p.Useful, series[i]})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].useful < cands[j].useful })
	return cands[0].useful
}

// OverheadSensitivity runs Figure 6: the same depth sweep under several
// total-overhead values, returning one SweepResult per overhead, in order.
func OverheadSensitivity(cfg SweepConfig, overheadsFO4 []float64) []SweepResult {
	out := make([]SweepResult, 0, len(overheadsFO4))
	for _, o := range overheadsFO4 {
		c := cfg
		c.Overhead = scaledPaperOverhead(o)
		out = append(out, DepthSweep(c))
	}
	return out
}

// scaledPaperOverhead is the Table 1 latch/skew/jitter decomposition
// scaled to a total of totalFO4, for Figure 6 and PointOptions alike.
func scaledPaperOverhead(totalFO4 float64) fo4.Overhead {
	t := fo4.PaperOverhead.Total()
	return fo4.Overhead{
		Latch:  fo4.PaperOverhead.Latch * totalFO4 / t,
		Skew:   fo4.PaperOverhead.Skew * totalFO4 / t,
		Jitter: fo4.PaperOverhead.Jitter * totalFO4 / t,
	}
}
