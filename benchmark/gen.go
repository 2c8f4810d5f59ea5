package main

import (
	"math/rand/v2"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/serve"
)

// Input sizes. The study runs at the trace length of the root study
// benchmarks (bench_test.go); served grids use the trace length of the
// repository's documented /sweep requests, which is the same.
const (
	studyInstructions = 20000
	serveInstructions = 20000

	smallGridDepths = 4  // depths per small served grid
	smallGridBenchs = 2  // benchmarks per small served grid
	hotSmallGrids   = 24 // small grids in the serve-hot working set
	hotSeedPool     = 3  // trace seeds the serve-hot working set shares
)

// gen draws every input of one run from the workload seed, so the same
// seed gives the same studies, requests and working set. It is safe for
// concurrent use; concurrent clients draw from one sequence.
type gen struct {
	mu   sync.Mutex
	rng  *rand.Rand
	used map[uint64]bool // trace seeds handed out by freshSeed
	reqs int             // cold requests drawn so far
}

func newGen(seed uint64) *gen {
	return &gen{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), used: map[uint64]bool{}}
}

// freshSeed returns a trace seed this generator has never returned. A
// seed of 0 would normalize to 1, so it is never drawn.
func (g *gen) freshSeed() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.freshSeedLocked()
}

func (g *gen) freshSeedLocked() uint64 {
	for {
		s := g.rng.Uint64()
		if s != 0 && !g.used[s] {
			g.used[s] = true
			return s
		}
	}
}

// coldRequest draws the next serve-cold request: a small grid on a trace
// seed never used before in the run, rotating over the three machine
// shapes so every dispatch batch mixes them.
func (g *gen) coldRequest() serve.SweepRequest {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.smallGridLocked(g.freshSeedLocked(), g.reqs)
	g.reqs++
	return r
}

// hotWorkingSet draws the serve-hot working set: hotSmallGrids small
// grids over a pool of hotSeedPool trace seeds, plus the full paper grid
// over the whole suite on the out-of-order and the in-order machine.
func (g *gen) hotWorkingSet() []serve.SweepRequest {
	g.mu.Lock()
	defer g.mu.Unlock()
	seeds := make([]uint64, hotSeedPool)
	for i := range seeds {
		seeds[i] = g.freshSeedLocked()
	}
	set := make([]serve.SweepRequest, 0, hotSmallGrids+2)
	for i := 0; i < hotSmallGrids; i++ {
		set = append(set, g.smallGridLocked(seeds[g.rng.IntN(len(seeds))], i))
	}
	for _, m := range []string{core.MachineOutOfOrder, core.MachineInOrder} {
		set = append(set, serve.SweepRequest{
			Machine: m, UsefulMin: 2, UsefulMax: 16,
			Instructions: serveInstructions, Seed: seeds[0],
		})
	}
	return set
}

// pick returns an index in [0, n) from the run's sequence.
func (g *gen) pick(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rng.IntN(n)
}

// smallGridLocked draws smallGridDepths distinct depths of the paper
// grid and smallGridBenchs distinct benchmarks. shape picks the machine:
// the conventional out-of-order core, a 32-entry window with 4 wakeup
// stages, or the in-order core.
func (g *gen) smallGridLocked(seed uint64, shape int) serve.SweepRequest {
	grid := core.PaperGrid()
	useful := make([]float64, 0, smallGridDepths)
	for _, i := range g.rng.Perm(len(grid))[:smallGridDepths] {
		useful = append(useful, grid[i])
	}
	sort.Float64s(useful)
	names := core.BenchmarkNames()
	benchs := make([]string, 0, smallGridBenchs)
	for _, i := range g.rng.Perm(len(names))[:smallGridBenchs] {
		benchs = append(benchs, names[i])
	}
	r := serve.SweepRequest{Useful: useful, Benchmarks: benchs, Instructions: serveInstructions, Seed: seed}
	switch shape % 3 {
	case 1:
		r.Window, r.WindowStages = 32, []int{4}
	case 2:
		r.Machine = core.MachineInOrder
	}
	return r
}
