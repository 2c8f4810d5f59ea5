package core

// This file is the sweep engine: every study entry point in the package
// funnels its simulations through it. A study describes its grid —
// (clock point × benchmark) for the BIPS sweeps, (variant × benchmark)
// for the fixed-clock IPC studies — and the engine executes the whole
// grid on one deterministic worker pool (internal/exec), taking each
// benchmark trace from a process-wide cache bounded by bytes (so a trace
// is generated once for as long as it stays cached) and sharing it
// read-only across workers. Aggregation always happens serially in
// benchmark order, so results are bit-for-bit identical at any worker
// count.

import (
	"container/list"
	"sync"
	"unsafe"

	"repro/internal/config"
	"repro/internal/exec"
	"repro/internal/fo4"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// pool builds the executor configuration for this sweep, wiring the
// sweep's recorder (when present) onto the executor's observation hooks.
func (c SweepConfig) pool() exec.Pool {
	p := exec.Pool{Workers: c.Workers, Ctx: c.Context}
	if c.Obs != nil {
		p.OnTaskStart = c.Obs.TaskStart
		p.OnTaskDone = c.Obs.TaskDone
	}
	return p
}

// cancelled reports whether the sweep's context has been cancelled.
func (c SweepConfig) cancelled() bool {
	return c.Context != nil && c.Context.Err() != nil
}

// recordEconomy surfaces the simulator's work-sharing counters in the run
// manifest: wakes actually delivered through the consumer index versus
// the window entries the per-issue broadcast scan they replaced would
// have touched, and the lanes that shared a prewarmed memory template
// and the instruction decodes reused from a batch's first lane.
func recordEconomy(cfg SweepConfig, stats []pipeline.Stats) {
	var wakes, scanned, lanes, shared uint64
	for i := range stats {
		wakes += stats[i].WakeupWakes
		scanned += stats[i].WakeupScanned
		lanes += stats[i].BatchLanes
		shared += stats[i].BatchSharedDecode
	}
	cfg.Obs.Add("wakeup_wakes", int64(wakes))
	cfg.Obs.Add("wakeup_scanned", int64(scanned))
	if lanes > 0 {
		cfg.Obs.Add("batch_lanes", int64(lanes))
		cfg.Obs.Add("batch_shared_decode", int64(shared))
	}
}

// runGrid simulates the full (params × traces) product and returns stats
// indexed [pi*len(traces)+ti]. Each executor task is one trace running
// every params lane through one pipeline.RunBatch call on a BatchScratch
// borrowed from the idle list (see runLanes), so the depth-invariant
// per-benchmark work (decode, predictor walk, consumer index, cache
// prewarm) happens once per benchmark instead of once per cell, and the
// worker's lane state survives from one study to the next. Each cell
// equals pipeline.RunWith on its (params, trace) bit for bit at any
// worker count, apart from the batch accounting counters (excluded from
// JSON).
func runGrid(cfg SweepConfig, params []pipeline.Params, traces []*trace.Trace) []pipeline.Stats {
	cfg.Obs.Add("simulations", int64(len(params)*len(traces)))
	batches, _ := exec.Map(cfg.pool(), traces, func(_ int, tr *trace.Trace) []pipeline.Stats {
		return runLanes(params, tr)
	})

	stats := make([]pipeline.Stats, len(params)*len(traces))
	for ti := range traces {
		if batches[ti] == nil {
			continue // cancelled before this trace's batch ran
		}
		for pi := range params {
			stats[pi*len(traces)+ti] = batches[ti][pi]
		}
	}
	recordEconomy(cfg, stats)
	return stats
}

// idleScratch is the process-wide idle list of simulation state. Every
// pipeline.RunBatch call in the package — a study's grid task or a
// SimulateBatch call from sweepd — borrows one BatchScratch from it and
// puts it back when the call returns, so a worker's lane hierarchy,
// prewarm template and per-instruction arenas outlive the study or
// dispatch batch that built them. Unlike a sync.Pool the list never
// evicts, so reuse does not depend on GC timing.
//
// Retention bound: the list holds at most one entry per borrower that was
// ever active at once — at most one per executor worker running
// simulations concurrently. An entry keeps one 2 MiB-L2 lane hierarchy
// and one prewarm template (~0.5 MiB each) plus, per instruction of the
// longest trace it ran, 28 B of timing arenas and 30 B of decode and
// consumer-index arenas: ~2.2 MB at 20 000 instructions, ~59 MB at
// sweepd's 1 000 000-instruction cap. The decode arenas are rebuilt by
// every call and hold no reference to a trace, so an entry never keeps
// a trace alive. Entries are never freed, so a process keeps the state
// of its busiest moment.
var idleScratch struct {
	mu   sync.Mutex
	free []*pipeline.BatchScratch
}

// runLanes runs one pipeline.RunBatch call on a BatchScratch borrowed
// from the idle list, or on a new one when every entry is out. Which
// entry a call gets depends on scheduling, but results never do: the
// Scratch contract makes every run a pure function of (params, trace).
func runLanes(params []pipeline.Params, tr *trace.Trace) []pipeline.Stats {
	idleScratch.mu.Lock()
	var bs *pipeline.BatchScratch
	if n := len(idleScratch.free); n > 0 {
		bs = idleScratch.free[n-1]
		idleScratch.free = idleScratch.free[:n-1]
	} else {
		bs = pipeline.NewBatchScratch()
	}
	idleScratch.mu.Unlock()

	stats := pipeline.RunBatch(params, tr, bs.Lanes(len(params)))

	idleScratch.mu.Lock()
	idleScratch.free = append(idleScratch.free, bs)
	idleScratch.mu.Unlock()
	return stats
}

// traceKey identifies one generated trace. Profile is a comparable value
// type, so two custom profiles that share a name but differ in any
// parameter still get distinct cache entries.
type traceKey struct {
	profile      trace.Profile
	instructions int
	seed         uint64
}

// traceCacheBytes is the trace cache's budget: the instruction bytes,
// cap(Insts)×Sizeof(Inst), it keeps resident. It is sized so that
//
//   - the largest suite in-repo callers re-read, experiments.Full (18
//     benchmarks × 120 000 instructions), fits: 51.8 MB at 24 B per
//     Inst. At the 32 B an unpacked Inst took it would be 69 MB, so the
//     packing is what lets a 64 MiB cache hold it;
//   - at sweepd's 1 000 000-instruction cap one trace is 24 MB, so the
//     cache holds two.
//
// An evicted trace stays alive only while a running call still holds it.
const traceCacheBytes = 64 << 20

// traceCache holds the most recently used traces, process-wide, up to
// traceCacheBytes. The simulators never mutate a trace (see the contract
// in internal/trace), so one generation serves every study, worker and
// clock point that asks for the same (profile, instructions, seed) while
// it stays cached. It is the only process-wide per-trace store: the
// decode and consumer index derived from a trace are per-call state in
// the pipeline Scratch, so this budget bounds all per-trace memory.
var traceCache = traceLRU{byKey: map[traceKey]*list.Element{}}

// traceLRU is a least-recently-used set of traces bounded by the bytes of
// their instructions.
type traceLRU struct {
	mu    sync.Mutex
	lru   list.List // of *traceEntry, most recently used at the front
	byKey map[traceKey]*list.Element
	bytes int64 // sum of the entries' bytes
}

// traceEntry is one cached trace and the bytes it is charged.
type traceEntry struct {
	key   traceKey
	tr    *trace.Trace
	bytes int64
}

// get returns the cached trace for key, marking it most recently used,
// or nil.
func (c *traceLRU) get(key traceKey) *trace.Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(e)
	return e.Value.(*traceEntry).tr
}

// put caches tr under key unless a racing caller already did, and
// returns the canonical trace and the number of entries evicted. It
// evicts from the cold end until the cache is within budget, but never
// the entry just inserted, so a trace larger than the whole budget is
// still cached, alone.
func (c *traceLRU) put(key traceKey, tr *trace.Trace) (*trace.Trace, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(e)
		return e.Value.(*traceEntry).tr, 0
	}
	ent := &traceEntry{key: key, tr: tr, bytes: int64(cap(tr.Insts)) * int64(unsafe.Sizeof(trace.Inst{}))}
	c.byKey[key] = c.lru.PushFront(ent)
	c.bytes += ent.bytes
	var evicted int64
	for c.bytes > traceCacheBytes && c.lru.Len() > 1 {
		old := c.lru.Remove(c.lru.Back()).(*traceEntry)
		delete(c.byKey, old.key)
		c.bytes -= old.bytes
		evicted++
	}
	return tr, evicted
}

// cachedTrace returns the (profile, instructions, seed) trace, generating
// and caching it on a miss. rec counts hits, misses and the evictions a
// miss causes. Generation runs outside the cache's lock, so two callers
// may race to generate the same trace; Generate is deterministic, so
// either result is identical and put keeps the first one stored as the
// canonical pointer. Either racer counts a miss: the generation work
// really happened twice.
func cachedTrace(p trace.Profile, instructions int, seed uint64, rec *obs.Recorder) *trace.Trace {
	key := traceKey{profile: p, instructions: instructions, seed: seed}
	if tr := traceCache.get(key); tr != nil {
		rec.Add("trace_cache_hits", 1)
		return tr
	}
	rec.Add("trace_cache_misses", 1)
	tr, evicted := traceCache.put(key, p.Generate(instructions, seed))
	rec.Add("trace_cache_evictions", evicted)
	return tr
}

// traces returns the benchmark traces for this sweep, generating missing
// ones in parallel on the sweep's worker pool and caching them for any
// later study in the process.
func (c SweepConfig) traces() []*trace.Trace {
	out, _ := exec.Map(c.pool(), c.Benchmarks, func(_ int, p trace.Profile) *trace.Trace {
		return cachedTrace(p, c.Instructions, c.Seed, c.Obs)
	})
	return out
}

// pointSpec describes one aggregate point of a BIPS study: a clock with
// its resolved timing, plus an optional parameter modification applied to
// every simulation of the point.
type pointSpec struct {
	useful float64
	clock  fo4.Clock
	freqHz float64
	timing config.Timing
	mod    func(*pipeline.Params)
}

// pointSpecFor resolves one clock point of this sweep.
func (c SweepConfig) pointSpecFor(useful float64, mod func(*pipeline.Params)) pointSpec {
	clk := fo4.Clock{Useful: useful, Overhead: c.Overhead}
	return pointSpec{
		useful: useful,
		clock:  clk,
		freqHz: clk.FrequencyHz(c.Tech),
		timing: c.Machine.Resolve(clk),
		mod:    mod,
	}
}

// runPoints simulates every (spec, benchmark) pair on the worker pool and
// folds each spec's stats into a SweepPoint. One flattened grid keeps the
// pool busy across point boundaries; per-point aggregation stays serial
// and in benchmark order, matching the old serial loop exactly.
func runPoints(cfg SweepConfig, specs []pointSpec, traces []*trace.Trace) []SweepPoint {
	specParams := make([]pipeline.Params, len(specs))
	for si, sp := range specs {
		p := pipeline.Params{Machine: cfg.Machine, Timing: sp.timing, Warmup: cfg.Warmup}
		if sp.mod != nil {
			sp.mod(&p)
		}
		specParams[si] = p
	}
	stats := runGrid(cfg, specParams, traces)

	points := make([]SweepPoint, len(specs))
	fold := newGroupFold(len(traces))
	bips := make([]float64, len(traces))
	for si, sp := range specs {
		pt := SweepPoint{
			Useful:    sp.useful,
			Clock:     sp.clock,
			FreqHz:    sp.freqHz,
			GroupBIPS: map[trace.Group]float64{},
		}
		if cfg.cancelled() {
			points[si] = pt
			continue
		}
		pt.PerBench = make([]BenchPoint, 0, len(traces))
		for ti, tr := range traces {
			s := stats[si*len(traces)+ti]
			bips[ti] = metrics.BIPS(s.IPC, pt.FreqHz)
			pt.PerBench = append(pt.PerBench, BenchPoint{
				Name: tr.Name, Group: tr.Group, IPC: s.IPC, BIPS: bips[ti], Stats: s,
			})
		}
		pt.AllBIPS = fold.fold(traces, bips, pt.GroupBIPS)
		points[si] = pt
	}
	return points
}

// runPoint evaluates one clock point; mod, when non-nil, may adjust the
// pipeline parameters (used by the loop and window experiments).
func runPoint(cfg SweepConfig, useful float64, traces []*trace.Trace, mod func(*pipeline.Params)) SweepPoint {
	return runPoints(cfg, []pointSpec{cfg.pointSpecFor(useful, mod)}, traces)[0]
}

// ipcPoint is one variant's harmonic-mean IPC across the suite — the
// aggregate the fixed-clock studies (Figures 8, 11, §4.5, §5.2) report.
type ipcPoint struct {
	groups map[trace.Group]float64
	all    float64
}

// runIPCVariants simulates every (variant, benchmark) pair on the worker
// pool from a shared base parameter set; mods[i] (nil allowed) adjusts
// the parameters of variant i. Aggregation is serial and in benchmark
// order, so the result matches a serial per-variant loop bit-for-bit.
func runIPCVariants(cfg SweepConfig, traces []*trace.Trace, base pipeline.Params, mods []func(*pipeline.Params)) []ipcPoint {
	variantParams := make([]pipeline.Params, len(mods))
	for mi, mod := range mods {
		p := base
		if mod != nil {
			mod(&p)
		}
		variantParams[mi] = p
	}
	stats := runGrid(cfg, variantParams, traces)

	out := make([]ipcPoint, len(mods))
	fold := newGroupFold(len(traces))
	ipcs := make([]float64, len(traces))
	for mi := range mods {
		pt := ipcPoint{groups: map[trace.Group]float64{}}
		if cfg.cancelled() {
			out[mi] = pt
			continue
		}
		for ti := range traces {
			ipcs[ti] = stats[mi*len(traces)+ti].IPC
		}
		pt.all = fold.fold(traces, ipcs, pt.groups)
		out[mi] = pt
	}
	return out
}

// groupFold is the per-group harmonic-mean aggregation runPoints and
// runIPCVariants share. Its scratch is reused across folds: group
// membership is a property of the trace list alone, so the per-group
// series only need truncation between folds (the array is indexed by
// trace.Group; reading it in trace.Groups() order keeps the fold order
// of the historical map-based aggregation).
type groupFold [3][]float64

func newGroupFold(traces int) *groupFold {
	var f groupFold
	for g := range f {
		f[g] = make([]float64, 0, traces)
	}
	return &f
}

// fold stores the harmonic mean of each group's values (vals[i] belongs
// to traces[i], in benchmark order) into groups, and returns the
// harmonic mean over every trace.
func (f *groupFold) fold(traces []*trace.Trace, vals []float64, groups map[trace.Group]float64) float64 {
	for g := range f {
		f[g] = f[g][:0]
	}
	for ti, tr := range traces {
		f[tr.Group] = append(f[tr.Group], vals[ti])
	}
	for _, g := range trace.Groups() {
		if xs := f[g]; len(xs) > 0 {
			groups[g] = metrics.HarmonicMean(xs)
		}
	}
	return metrics.HarmonicMean(vals)
}
