package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/trace"
)

// layerProbe records spans around this benchmark's own calls into the
// public functions of the trace, pipeline and mem layers. A traced run
// makes those calls on the inputs its workload simulated and checks
// that they reproduce the workload's results, so the spans time the
// same program the workload ran. It is used from one goroutine.
type layerProbe struct {
	genMS, genNsPerInst, consumerMS []float64
	genAlloc, genInsts              uint64

	batchMS, batchNsPerLaneInst []float64
	batchLanes, batchAlloc      uint64

	memSetupUS, memAccessNS      []float64
	l1Acc, l1Miss, l2Acc, l2Miss uint64

	// spans is the time spent in trace and pipeline calls, the layers
	// core.accounted_ratio adds up.
	spans time.Duration
}

// generate times prof.Generate and the trace's consumer index build.
func (p *layerProbe) generate(prof trace.Profile, n int, seed uint64) *trace.Trace {
	a0 := totalAlloc()
	t0 := time.Now()
	tr := prof.Generate(n, seed)
	gen := time.Since(t0)
	p.genAlloc += totalAlloc() - a0
	p.genInsts += uint64(n)

	t1 := time.Now()
	tr.ConsumerIndexOf()
	ci := time.Since(t1)

	p.genMS = append(p.genMS, ms(gen))
	p.genNsPerInst = append(p.genNsPerInst, float64(gen.Nanoseconds())/float64(n))
	p.consumerMS = append(p.consumerMS, ms(ci))
	p.spans += gen + ci
	return tr
}

// runBatch times one pipeline.RunBatch call over tr.
func (p *layerProbe) runBatch(params []pipeline.Params, tr *trace.Trace, bs *pipeline.BatchScratch) []pipeline.Stats {
	lanes := bs.Lanes(len(params))
	a0 := totalAlloc()
	t0 := time.Now()
	st := pipeline.RunBatch(params, tr, lanes)
	d := time.Since(t0)
	p.batchAlloc += totalAlloc() - a0
	p.batchMS = append(p.batchMS, ms(d))
	p.batchNsPerLaneInst = append(p.batchNsPerLaneInst,
		float64(d.Nanoseconds())/float64(len(params)*len(tr.Insts)))
	p.batchLanes += uint64(len(params))
	p.spans += d
	return st
}

// replayMem replays tr's loads and stores in program order through a
// prewarmed data hierarchy of machine m, built the way the simulator
// builds one.
func (p *layerProbe) replayMem(m config.Machine, tr *trace.Trace) {
	s := m.Structures
	t0 := time.Now()
	h := mem.NewHierarchy(
		mem.NewCache(s.DL1.CapacityBytes, s.DL1.BlockBytes, s.DL1.Assoc),
		mem.NewCache(s.L2.CapacityBytes, s.L2.BlockBytes, s.L2.Assoc),
	)
	h.Coverage = tr.PrefetchCoverage
	h.Prewarm(tr.HotBytes, tr.WarmBytes)
	setup := time.Since(t0)

	n := 0
	t1 := time.Now()
	for i := range tr.Insts {
		if tr.Insts[i].Class.IsMem() {
			h.Access(tr.Insts[i].Addr)
			n++
		}
	}
	access := time.Since(t1)

	p.memSetupUS = append(p.memSetupUS, float64(setup.Nanoseconds())/1e3)
	if n > 0 {
		p.memAccessNS = append(p.memAccessNS, float64(access.Nanoseconds())/float64(n))
	}
	p.l1Acc += h.L1.Accesses
	p.l1Miss += h.L1.Misses
	p.l2Acc += h.L2.Accesses
	p.l2Miss += h.L2.Misses
}

// report records the probe's per-layer metrics. capacity is the wall
// time of the work the probe replayed times the workers that ran it.
func (p *layerProbe) report(rc *runCtx, capacity time.Duration) {
	rc.setTiming("trace.generate_ms", p.genMS, "ms")
	rc.setTiming("trace.generate_ns_per_inst", p.genNsPerInst, "ns")
	rc.setTiming("trace.consumer_index_ms", p.consumerMS, "ms")
	rc.set("trace.alloc_bytes_per_inst", ratio(float64(p.genAlloc), float64(p.genInsts)), "B")

	calls := float64(len(p.batchMS))
	rc.setTiming("pipeline.run_batch_ms", p.batchMS, "ms")
	rc.setTiming("pipeline.ns_per_lane_inst", p.batchNsPerLaneInst, "ns")
	rc.set("pipeline.lanes_per_call", ratio(float64(p.batchLanes), calls), "count")
	rc.set("pipeline.alloc_kb_per_call", ratio(float64(p.batchAlloc)/1024, calls), "KiB")

	rc.setTiming("mem.access_ns", p.memAccessNS, "ns")
	rc.setTiming("mem.setup_us_per_lane", p.memSetupUS, "us")
	rc.set("mem.l1_hit_ratio", 1-ratio(float64(p.l1Miss), float64(p.l1Acc)), "ratio")
	rc.set("mem.l2_hit_ratio", 1-ratio(float64(p.l2Miss), float64(p.l2Acc)), "ratio")

	rc.set("core.accounted_ratio", ratio(float64(p.spans), float64(capacity)), "ratio")
}

// setExec records the executor metrics from the telemetry of a recorder
// that observed wall time of work on workers workers.
func setExec(rc *runCtx, snap obs.Snapshot, wall time.Duration, workers int) {
	rc.set("exec.utilization", ratio(snap.Tasks.TotalMS, ms(wall)*float64(workers)), "ratio")
	rc.metrics["exec.task_ms_max"] = metric{value: snap.Tasks.MaxMS, unit: "ms",
		note: fmt.Sprintf("slowest of %d tasks", snap.Tasks.Count)}
	rc.metrics["exec.queue_wait_ms_p50"] = metric{value: snap.QueueWait.P50MS, unit: "ms",
		note: fmt.Sprintf("%d tasks", snap.QueueWait.Count)}
}

// pointParams resolves a normalized point to the simulator parameters
// core.SimulatePoint runs it with.
func pointParams(o core.PointOptions) pipeline.Params {
	m := config.Alpha21264()
	if o.Machine == core.MachineInOrder {
		m = config.InOrder7Stage()
	}
	if o.Window > 0 {
		m.UnifiedWindow = o.Window
	}
	p := pipeline.Params{
		Machine:         m,
		Timing:          m.Resolve(o.Clock()),
		NaivePipelining: o.NaivePipelining,
	}
	if o.Warmup != core.NoWarmup {
		p.Warmup = o.Warmup
	}
	if o.WindowStages > 1 {
		p.WindowStages = o.WindowStages
	}
	if len(o.PreSelect) > 0 {
		p.PreSelect = append([]int(nil), o.PreSelect...)
	}
	return p
}

// timingStore is the ResultStore a traced server runs on: it forwards
// every call to the durable store underneath and times Get and Put.
type timingStore struct {
	store.ResultStore

	mu           sync.Mutex
	getUS, putUS []float64
}

func (s *timingStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	line, ok := s.ResultStore.Get(key)
	d := time.Since(t0)
	s.mu.Lock()
	s.getUS = append(s.getUS, float64(d.Nanoseconds())/1e3)
	s.mu.Unlock()
	return line, ok
}

func (s *timingStore) Put(key string, line []byte) {
	t0 := time.Now()
	s.ResultStore.Put(key, line)
	d := time.Since(t0)
	s.mu.Lock()
	s.putUS = append(s.putUS, float64(d.Nanoseconds())/1e3)
	s.mu.Unlock()
}

// samples returns copies of the Get and Put timings so far.
func (s *timingStore) samples() (get, put []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.getUS...), append([]float64(nil), s.putUS...)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
