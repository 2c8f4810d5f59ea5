// Package repro reproduces "The Optimal Logic Depth Per Pipeline Stage is
// 6 to 8 FO4 Inverter Delays" (Hrishikesh, Burger, Jouppi, Keckler,
// Farkas, Shivakumar; ISCA 2002) as a Go library.
//
// The package is a facade over the internal implementation:
//
//   - fan-out-of-four clocking arithmetic and the Table 1 overhead model
//     (internal/fo4, internal/circuit, internal/latch);
//   - a Cacti-style analytical timing model for on-chip structures
//     (internal/cacti) and machine configurations resolved into cycle
//     latencies at any clock — the Table 3 methodology (internal/config);
//   - synthetic SPEC 2000 workload profiles (internal/trace), a tournament
//     branch predictor (internal/branch) and a cache hierarchy
//     (internal/mem);
//   - cycle-level in-order and out-of-order pipeline simulators with the
//     segmented instruction window of Section 5 (internal/pipeline);
//   - the depth-sweep methodology and every evaluation experiment
//     (internal/core, internal/experiments).
//
// Quick start:
//
//	sweep := repro.DepthSweep(repro.SweepConfig{
//		Machine:  repro.Alpha21264(),
//		Overhead: repro.PaperOverhead,
//	})
//	fmt.Println(sweep.OptimalUseful(repro.Integer)) // ≈ 6 FO4
package repro

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fo4"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Clocking and technology model.
type (
	// Tech is a fabrication technology identified by drawn gate length.
	Tech = fo4.Tech
	// Clock is a clock design point: useful FO4 per stage plus overhead.
	Clock = fo4.Clock
	// Overhead is the per-stage clocking overhead decomposition (Table 1).
	Overhead = fo4.Overhead
)

// Technology nodes and the paper's overhead values.
var (
	Tech100nm     = fo4.Tech100nm
	Tech180nm     = fo4.Tech180nm
	Tech130nm     = fo4.Tech130nm
	PaperOverhead = fo4.PaperOverhead
)

// Machine configuration.
type (
	// Machine is a full machine configuration (widths, queues, structures).
	Machine = config.Machine
	// Timing is a machine resolved at a clock: all latencies in cycles.
	Timing = config.Timing
)

// Alpha21264 returns the paper's baseline out-of-order machine.
func Alpha21264() Machine { return config.Alpha21264() }

// InOrder7Stage returns the Section 4.1 in-order machine.
func InOrder7Stage() Machine { return config.InOrder7Stage() }

// Cray1SMemorySystem returns the Section 4.2 what-if machine.
func Cray1SMemorySystem() Machine { return config.Cray1SMemorySystem() }

// Workloads.
type (
	// Profile is a synthetic benchmark description.
	Profile = trace.Profile
	// Trace is a generated dynamic instruction stream.
	Trace = trace.Trace
	// Group classifies benchmarks like the paper's figures.
	Group = trace.Group
)

// Benchmark groups.
const (
	Integer     = trace.Integer
	VectorFP    = trace.VectorFP
	NonVectorFP = trace.NonVectorFP
)

// SPEC2000 returns the 18 calibrated benchmark profiles of Table 2.
func SPEC2000() []Profile { return trace.SPEC2000() }

// BenchmarksByGroup returns the profiles in one group.
func BenchmarksByGroup(g Group) []Profile { return trace.ByGroup(g) }

// BenchmarkByName looks a profile up by name (e.g. "176.gcc").
func BenchmarkByName(name string) (Profile, bool) { return trace.ByName(name) }

// Simulation.
type (
	// SimParams configures one pipeline simulation.
	SimParams = pipeline.Params
	// SimStats is a simulation outcome.
	SimStats = pipeline.Stats
)

// Simulate runs one trace through the configured pipeline on fresh
// simulation state.
func Simulate(p SimParams, tr *Trace) SimStats { return pipeline.RunWith(p, tr, nil) }

// The depth-sweep methodology (the paper's primary contribution).
type (
	// SweepConfig configures a pipeline-depth sweep.
	SweepConfig = core.SweepConfig
	// SweepResult is a completed sweep with per-group aggregates.
	SweepResult = core.SweepResult
	// SweepPoint is one clock design point of a sweep.
	SweepPoint = core.SweepPoint
)

// NoWarmup requests an explicitly empty warmup window in a SweepConfig
// (the zero value keeps its default-20% meaning).
const NoWarmup = core.NoWarmup

// DepthSweep runs the Section 4 experiment. Set SweepConfig.Workers to
// control the simulation worker pool (0 uses every core; 1 forces the
// serial path); results are identical at any worker count.
func DepthSweep(cfg SweepConfig) SweepResult { return core.DepthSweep(cfg) }

// OverheadSensitivity runs Figure 6's family of sweeps.
func OverheadSensitivity(cfg SweepConfig, overheadsFO4 []float64) []SweepResult {
	return core.OverheadSensitivity(cfg, overheadsFO4)
}

// CriticalLoopSensitivity runs Figure 8.
func CriticalLoopSensitivity(cfg SweepConfig, maxExtra int) []core.LoopSweep {
	return core.CriticalLoopSensitivity(cfg, maxExtra)
}

// SegmentedWindowSweep runs Figure 11.
func SegmentedWindowSweep(cfg SweepConfig, maxStages int, naive bool) []core.WindowPoint {
	return core.SegmentedWindowSweep(cfg, maxStages, naive)
}

// SegmentedSelect runs the Section 5.2 partitioned-selection comparison.
func SegmentedSelect(cfg SweepConfig) core.SelectResult { return core.SegmentedSelect(cfg) }

// StructureOptimization runs Figure 7.
func StructureOptimization(cfg SweepConfig) []core.StructOptPoint {
	return core.StructureOptimization(cfg, nil)
}

// Cray1SComparison runs the Section 4.2 sweep.
func Cray1SComparison(cfg SweepConfig) SweepResult { return core.Cray1SComparison(cfg) }

// Experiments gives access to the per-table/figure drivers used by the
// cmd/ binaries and the benchmark harness.
type ExperimentOptions = experiments.Options

// PaperUsefulGrid returns the paper's 2..16 FO4 grid.
func PaperUsefulGrid() []float64 { return core.PaperGrid() }
