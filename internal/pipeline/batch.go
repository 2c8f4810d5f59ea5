package pipeline

import (
	"slices"

	"repro/internal/trace"
)

// RunBatch simulates one benchmark trace under every lane of params in a
// single batched pass: the depth-invariant per-benchmark work — the
// per-instruction flags with the tournament predictor's verdicts from its
// training walk, the consumer CSR (trace.ConsumerIndex, built only when some lane
// is out-of-order), and the cache-prewarm walk — is done once per call
// and shared, while each lane keeps its own timing state in its Scratch.
// The shared state lives in the first lane's Scratch (a throwaway one
// when that slot is nil), beside its lane state, and is rebuilt by the
// next call. Lanes are partitioned by memory-system geometry in
// first-seen order; lanes in a partition of two or more share one
// prewarmed hierarchy template (its post-prewarm state is a pure function
// of geometry and trace, so copying it is bit-identical to rebuilding
// it), and a lane whose geometry no other lane shares falls back to the
// plain RunWith path. Structural divergence between lanes — different
// WindowStages, PreSelect shapes, in-order vs out-of-order — is always
// allowed: each lane runs its own core loop over the shared decode.
//
// out[i] equals RunWith(params[i], tr, scratches[i]) field for field;
// the batch property test pins that equivalence. scratches must have
// one (possibly nil) slot per lane and, like every Scratch, must not be
// shared with concurrent calls. Slots may alias one Scratch, and
// BatchScratch.Lanes makes them all alias it: lanes run strictly one
// after another, each fully re-initializing the state it reads (the
// Scratch contract), lanes only read the decode (Scratch.dec), and a
// partition's prewarm template (Scratch.warmTmpl) is a separate object
// from the lane hierarchy (Scratch.hier) that every lane copies it into,
// so a lane never overwrites the shared state the next lane reads.
func RunBatch(params []Params, tr *trace.Trace, scratches []*Scratch) []Stats {
	if len(scratches) != len(params) {
		panic("pipeline: RunBatch needs one scratch slot per lane")
	}
	out := make([]Stats, len(params))
	if len(params) == 0 {
		return out
	}
	owner := scratches[0]
	if owner == nil {
		owner = NewScratch()
	}
	outOfOrder := false
	for i := range params {
		outOfOrder = outOfOrder || !params[i].Machine.InOrder
	}
	owner.decode(tr, outOfOrder)

	// Partition the lanes by memory-system geometry in first-seen order:
	// one partition for a depth sweep, a few for a mixed-machine grid. The
	// partitions' lane indices go back to back into the owner's reusable
	// list, and the scan stops once every lane is placed.
	lanes := owner.batchLanes[:0]
	for i := 0; len(lanes) < len(params); i++ {
		if slices.Contains(lanes, i) {
			continue // placed with an earlier lane of its geometry
		}
		key := hierKeyFor(params[i].Machine)
		start := len(lanes)
		for j := i; j < len(params); j++ {
			if hierKeyFor(params[j].Machine) == key {
				lanes = append(lanes, j)
			}
		}
		runBatchPartition(params, tr, scratches, owner, out, lanes[start:])
	}
	owner.batchLanes = lanes
	return out
}

// runBatchPartition runs the lanes of one geometry partition, whose
// indices lanes lists. owner holds the call's shared state: the decode,
// already built, and the partition's prewarm template. Single-lane
// partitions are the RunWith fallback; larger ones build the template
// once and copy it into every lane.
func runBatchPartition(params []Params, tr *trace.Trace, scratches []*Scratch, owner *Scratch, out []Stats, lanes []int) {
	if len(lanes) == 1 {
		// A lane with no geometry partner shares nothing but the decode;
		// it runs the plain RunWith path.
		i := lanes[0]
		out[i] = runWith(params[i], tr, scratches[i], &owner.dec, nil)
		return
	}

	// Prewarm once per partition. The template lives on owner, beside
	// (never in place of) its lane hierarchy, so its allocation amortizes
	// across batches.
	tmpl := owner.warmTemplate(params[lanes[0]].Machine)
	tmpl.Coverage = tr.PrefetchCoverage
	tmpl.Prewarm(tr.HotBytes, tr.WarmBytes)

	for _, i := range lanes {
		out[i] = runWith(params[i], tr, scratches[i], &owner.dec, tmpl)
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
