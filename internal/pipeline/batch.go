package pipeline

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// RunBatch simulates one benchmark trace under every lane of params in a
// single batched pass: the depth-invariant per-benchmark work — the
// instruction decode and class flags, the tournament predictor's training
// walk, the consumer CSR (trace.ConsumerIndexOf), and the cache-prewarm
// walk — is done once and shared, while each lane keeps its own timing
// state in its Scratch. Lanes are partitioned by memory-system geometry
// in first-seen order; lanes in a partition of two or more share one
// prewarmed hierarchy template (its post-prewarm state is a pure function
// of geometry and trace, so copying it is bit-identical to rebuilding
// it), and a lane whose geometry no other lane shares falls back to the
// plain RunWith path with zero BatchLanes. Structural divergence between lanes — different
// WindowStages, PreSelect shapes, in-order vs out-of-order — is always
// allowed: each lane runs its own core loop over the shared decode.
//
// out[i] equals RunWith(params[i], tr, scratches[i]) field for field,
// except for the BatchLanes/BatchSharedDecode accounting that only
// RunBatch sets; the batch property test pins that equivalence.
// scratches must have one (possibly nil) slot per lane and, like every
// Scratch, must not be shared with concurrent calls. Slots may alias one
// Scratch, and BatchScratch.Lanes makes them all alias it: lanes run
// strictly one after another, each fully re-initializing the state it
// reads (the Scratch contract), and a partition's prewarm template
// (Scratch.warmTmpl) is a separate object from the lane hierarchy
// (Scratch.hier) that every lane copies it into, so a lane never
// overwrites the template the next lane copies from.
func RunBatch(params []Params, tr *trace.Trace, scratches []*Scratch) []Stats {
	if len(scratches) != len(params) {
		panic("pipeline: RunBatch needs one scratch slot per lane")
	}
	out := make([]Stats, len(params))
	if len(params) == 0 {
		return out
	}

	// Fast path: every lane has the same memory-system geometry — the
	// depth-sweep shape, where lanes differ only in clock-derived timing —
	// so there is exactly one partition and no index bookkeeping.
	uniform := true
	key0 := hierKeyFor(params[0].Machine)
	for i := 1; i < len(params); i++ {
		if hierKeyFor(params[i].Machine) != key0 {
			uniform = false
			break
		}
	}
	if uniform {
		runBatchPartition(params, tr, scratches, out, nil)
	} else {
		// Mixed-machine grids (ablations, capacity studies) are rare and
		// small, so the partition bookkeeping may allocate.
		keys := make([]hierKey, len(params))
		for i := range params {
			keys[i] = hierKeyFor(params[i].Machine)
		}
		assigned := make([]bool, len(params))
		var lanes []int
		for i := range params {
			if assigned[i] {
				continue
			}
			lanes = lanes[:0]
			for j := i; j < len(params); j++ {
				if !assigned[j] && keys[j] == keys[i] {
					assigned[j] = true
					lanes = append(lanes, j)
				}
			}
			runBatchPartition(params, tr, scratches, out, lanes)
		}
	}

	// Every lane after the first consumed the decode (and predictor walk)
	// the batch's first lane built or found.
	shared := uint64(len(tr.Insts))
	for i := 1; i < len(out); i++ {
		out[i].BatchSharedDecode = shared
	}
	return out
}

// runBatchPartition runs the lanes of one geometry partition. lanes
// lists the partition's lane indices; nil means all of params (the
// uniform fast path). Single-lane partitions are the RunWith fallback;
// larger ones build the shared prewarm template once and copy it into
// every lane.
func runBatchPartition(params []Params, tr *trace.Trace, scratches []*Scratch, out []Stats, lanes []int) {
	count := len(params)
	if lanes != nil {
		count = len(lanes)
	}
	laneAt := func(k int) int {
		if lanes == nil {
			return k
		}
		return lanes[k]
	}

	if count == 1 {
		// A lane with no geometry partner shares nothing but the decode;
		// it runs the plain RunWith path and keeps BatchLanes zero, so its
		// Stats are indistinguishable from an unbatched run's.
		i := laneAt(0)
		out[i] = runWith(params[i], tr, scratches[i], nil)
		return
	}

	// Prewarm once per partition. The template lives on the partition's
	// first scratch, beside (never in place of) its lane hierarchy, so its
	// allocation amortizes across batches; a nil scratch (one-off callers)
	// builds a throwaway.
	i0 := laneAt(0)
	var tmpl *mem.Hierarchy
	if s0 := scratches[i0]; s0 != nil {
		tmpl = s0.warmTemplate(params[i0].Machine)
	} else {
		tmpl = newHierarchy(params[i0].Machine)
	}
	tmpl.Coverage = tr.PrefetchCoverage
	tmpl.Prewarm(tr.HotBytes, tr.WarmBytes)

	for k := 0; k < count; k++ {
		i := laneAt(k)
		out[i] = runWith(params[i], tr, scratches[i], tmpl)
		out[i].BatchLanes = uint64(count)
	}
}

// BatchScratch is the simulation state a RunBatch caller threads through
// successive batches, the way a single Scratch is reused across RunWith
// calls: a fresh value is valid, reuse only amortizes allocations, and a
// BatchScratch must never be shared by concurrent batches. It holds one
// Scratch that every lane slot aliases (see RunBatch), so its footprint —
// one lane hierarchy, one prewarm template and one set of
// per-instruction arenas — does not grow with the lane count. The sweep
// engine and the serving scheduler borrow one per running task from
// internal/core's idle list.
type BatchScratch struct {
	s     Scratch
	lanes []*Scratch
}

// NewBatchScratch returns an empty BatchScratch; its arenas grow on first
// use.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// Lanes returns n scratch slots, every one aliasing the BatchScratch's
// single Scratch.
func (b *BatchScratch) Lanes(n int) []*Scratch {
	for len(b.lanes) < n {
		b.lanes = append(b.lanes, &b.s)
	}
	return b.lanes[:n]
}
