package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/exec"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 5

// opResult is what one operation reports to the phase runner.
type opResult struct {
	dur      time.Duration // the operation's latency as its user sees it
	points   int           // grid cells or result lines it completed
	simInsts uint64        // instructions it simulated, summed over lanes
	err      error         // a mismatch in its output
}

// phase is the raw measurement of one timed phase.
type phase struct {
	opsMS    []float64
	points   int
	simInsts uint64
	wall     time.Duration
	alloc    uint64 // bytes allocated in the process during the phase
	liveHeap uint64 // live heap after a forced GC at the phase's heap mark
}

// timed runs op from clients closed-loop goroutines until the phase
// length has passed; each client starts its next operation when the
// previous one returns. When the heapMark-th operation completes, the
// client that completed it forces a GC and reads the live heap, so the
// reading reflects a fixed amount of work however fast the operations
// run; a phase that ends before its mark reads the heap at its end.
func (rc *runCtx) timed(clients, heapMark int, op func(client int) opResult) phase {
	var (
		ph   phase
		mu   sync.Mutex
		done int
		m0   runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(rc.phaseSeconds())
	// One executor worker per client; each runs its closed loop. Map
	// fails only when its pool's context is cancelled, and this one has
	// none.
	_, _ = exec.Map(exec.Pool{Workers: clients}, make([]struct{}, clients), func(c int, _ struct{}) struct{} {
		for time.Now().Before(deadline) {
			r := op(c)
			mu.Lock()
			ph.opsMS = append(ph.opsMS, ms(r.dur))
			ph.points += r.points
			ph.simInsts += r.simInsts
			rc.check(r.err)
			done++
			mark := done == heapMark
			mu.Unlock()
			if mark {
				heap := liveHeap()
				mu.Lock()
				ph.liveHeap = heap
				mu.Unlock()
			}
		}
		return struct{}{}
	})
	ph.wall = time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	if ph.liveHeap == 0 {
		ph.liveHeap = liveHeap()
	}
	return ph
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setEndToEnd records the untraced phase's end-to-end metrics.
func (rc *runCtx) setEndToEnd(ph phase) {
	rc.setTiming("op_ms_p50", ph.opsMS, "ms")
	rc.set("points_per_s", float64(ph.points)/ph.wall.Seconds(), "1/s")
	rc.set("alloc_kb_per_point", ratio(float64(ph.alloc)/1024, float64(ph.points)), "KiB")
	rc.set("live_heap_mb", float64(ph.liveHeap)/1e6, "MB")
	if ph.simInsts > 0 {
		rc.set("sim_minst_per_s", float64(ph.simInsts)/1e6/ph.wall.Seconds(), "Minst/s")
	}
}

// setOverhead records the traced phase's median operation and how much
// slower it ran than the untraced phase's. Only the operation is
// compared: the layer probes run outside it, so the traced phase's
// throughput is not comparable.
func (rc *runCtx) setOverhead(untraced, traced phase) {
	rc.setTiming("traced.op_ms_p50", traced.opsMS, "ms")
	u, t := summarize(untraced.opsMS).P50, summarize(traced.opsMS).P50
	rc.set("tracing.overhead_ratio", t/u-1, "ratio")
}

// setSetup records the median set-up time of the run's repetitions.
func (rc *runCtx) setSetup(reps []float64) {
	rc.setTiming("setup_s", reps, "s")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
