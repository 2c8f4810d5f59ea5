package pipeline

import (
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Scratch is the reusable simulation state of one RunWith lane: the
// per-instruction timestamp arenas, issue-queue storage, selection and
// pre-selection scratch, the frontend ring buffer, and the (resettable)
// branch predictor and cache hierarchy. A fresh Scratch is valid; reuse
// only amortizes allocations.
//
// Contract: a Scratch may serve any number of sequential RunWith calls —
// every run fully re-initializes the state it reads, so results are a
// pure function of (Params, Trace) regardless of what ran before — but
// it must never be shared by concurrent runs. Sequential sharing is the
// point: every lane of a RunBatch call runs on the same Scratch (the
// slots of a BatchScratch all alias one), and the sweep engine and the
// serving scheduler keep one BatchScratch per running task, borrowed
// from internal/core's idle list and reused across calls; a nil Scratch
// passed to RunWith is a fresh one for that call. Traces stay immutable
// throughout: a Scratch holds simulator-private state and the decode
// derived from the call's trace, never a reference to the trace itself.
type Scratch struct {
	// dec is the depth-invariant decode (and consumer index) of the
	// current call's trace, rebuilt by each RunWith or RunBatch call.
	dec traceDecode

	// Per-instruction arenas, sized to the trace on each run. The data
	// (consumer-visible, post-bypass) and complete (executed) timestamps
	// are paired in one struct because dispatch resolves both for the same
	// producer back to back — one cache line per random producer lookup
	// instead of two.
	times    []instTimes
	queuePos []int32 // queue-tagged issue-queue position (see qposMask), -1 while absent

	queueStore [2]issueQueue

	selected []int32 // selectReady output scratch
	quota    []int   // markPreSelections quota scratch

	// fetchReady[i] is the cycle instruction i clears the frontend
	// pipeline and may dispatch, written once at fetch. Fetch and dispatch
	// both walk the trace in order, so the frontend queue between them is
	// just the index range [dispatch cursor, fetch cursor) over this
	// arena — no reset needed: a slot is always written (this run) before
	// it is read.
	fetchReady []int64

	hier    *mem.Hierarchy
	hierKey hierKey

	// warmTmpl is the batch prewarm template (see RunBatch): a hierarchy
	// prewarmed once per partition whose state every lane of it copies
	// into hier. It is always a separate object from hier, which is what
	// lets the lanes of one partition share this Scratch.
	warmTmpl    *mem.Hierarchy
	warmTmplKey hierKey

	// batchLanes is RunBatch's partition list on the owner Scratch: the
	// lane indices of each geometry partition, back to back.
	batchLanes []int
}

// NewScratch returns an empty Scratch; arenas grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// instTimes is one instruction's dynamic timestamps: data is the cycle a
// consumer may issue (post-bypass), complete the cycle the instruction
// has executed.
type instTimes struct {
	data, complete int64
}

// arenas sizes the per-instruction arrays for an n-instruction trace and
// resets them to their start-of-run values.
func (s *Scratch) arenas(n int) {
	if cap(s.times) < n {
		s.times = make([]instTimes, n)
		s.queuePos = make([]int32, n)
		s.fetchReady = make([]int64, n)
		// queuePos self-restores: a completed run issues (and so clears
		// the slot of) every instruction, so only fresh storage needs the
		// -1 fill. fetchReady needs none at all — a slot is written at
		// fetch before dispatch can read it.
		for i := range s.queuePos {
			s.queuePos[i] = -1
		}
	}
	s.times = s.times[:n]
	s.queuePos = s.queuePos[:n]
	s.fetchReady = s.fetchReady[:n]
	for i := 0; i < n; i++ {
		s.times[i] = instTimes{data: pending, complete: pending}
	}
}

// queues configures the run's issue-queue set out of the scratch storage
// and returns it indexed by dFP, with the number of distinct queues: the
// 21264's split integer/FP queues, or one shared window (both slots) when
// UnifiedWindow is set.
func (s *Scratch) queues(m config.Machine, stages int) ([2]*issueQueue, int) {
	if m.UnifiedWindow > 0 {
		s.queueStore[0].reset(m.UnifiedWindow, stages)
		return [2]*issueQueue{&s.queueStore[0], &s.queueStore[0]}, 1
	}
	if m.IntWindow <= 0 || m.FPWindow <= 0 {
		panic("pipeline: machine needs issue-queue capacities")
	}
	s.queueStore[0].reset(m.IntWindow, stages)
	s.queueStore[1].reset(m.FPWindow, stages)
	return [2]*issueQueue{&s.queueStore[0], &s.queueStore[1]}, 2
}

// selScratch returns the per-cycle selection scratch, emptied, with
// capacity for a full-width issue cycle.
func (s *Scratch) selScratch(width int) []int32 {
	if cap(s.selected) < width {
		s.selected = make([]int32, 0, width)
	}
	return s.selected[:0]
}

// quotaScratch returns the pre-selection quota array, one slot per
// window stage.
func (s *Scratch) quotaScratch(stages int) []int {
	if cap(s.quota) < stages {
		s.quota = make([]int, stages)
	}
	return s.quota[:stages]
}

// hierKey is the cache-geometry identity of a memory hierarchy: two
// hierarchies with equal keys are interchangeable after a Reset.
type hierKey struct {
	flat                       bool
	dl1Cap, dl1Block, dl1Assoc int
	l2Cap, l2Block, l2Assoc    int
}

func hierKeyFor(m config.Machine) hierKey {
	if m.Cray1SMemory {
		return hierKey{flat: true}
	}
	st := m.Structures
	return hierKey{
		dl1Cap: st.DL1.CapacityBytes, dl1Block: st.DL1.BlockBytes, dl1Assoc: st.DL1.Assoc,
		l2Cap: st.L2.CapacityBytes, l2Block: st.L2.BlockBytes, l2Assoc: st.L2.Assoc,
	}
}

// hierarchyFor puts the scratch's hierarchy in start-of-run state for
// machine m, reusing it when the cache geometry matches and rebuilding it
// otherwise: reset and prewarmed from the trace's working set, or — when
// a batch supplies a prewarmed template of the same geometry — copied
// from the template, skipping the per-lane reset and prewarm walks. The
// two paths produce bit-identical state (Reset restores the built state
// exactly, and the template is itself reset and prewarmed from the same
// trace; see RunBatch).
func (s *Scratch) hierarchyFor(m config.Machine, tr *trace.Trace, warm *mem.Hierarchy) *mem.Hierarchy {
	key := hierKeyFor(m)
	switch {
	case s.hier == nil || key != s.hierKey:
		s.hier, s.hierKey = newHierarchy(m), key
	case warm == nil:
		s.hier.Reset()
	}
	if warm != nil {
		s.hier.CopyStateFrom(warm)
	} else {
		s.hier.Coverage = tr.PrefetchCoverage
		s.hier.Prewarm(tr.HotBytes, tr.WarmBytes)
	}
	return s.hier
}

// warmTemplate returns the scratch's batch prewarm template for machine
// m in reset state, rebuilding it when the geometry changed.
func (s *Scratch) warmTemplate(m config.Machine) *mem.Hierarchy {
	key := hierKeyFor(m)
	if s.warmTmpl == nil || key != s.warmTmplKey {
		s.warmTmpl, s.warmTmplKey = newHierarchy(m), key
	} else {
		s.warmTmpl.Reset()
	}
	return s.warmTmpl
}
