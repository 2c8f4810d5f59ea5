package pipeline

import (
	"math/rand"
	"slices"
	"testing"
)

// denseSelect is the reference selection scan: a walk over every slot,
// oldest first, with no scheduled bitmap and no early exit. Tombstones
// and entries still awaiting a producer carry ready == pending, so the
// readiness test alone passes over them.
func denseSelect(flags []uint8, q *issueQueue, cycle int64, budget [2]int, preSel bool) ([]int32, [2]int) {
	var sel []int32
	for wi, r := range q.ready {
		if r > cycle {
			continue
		}
		e := &q.entries[wi]
		if preSel && wi >= q.segSize && !e.preSelected {
			continue
		}
		cls := flags[e.idx] & dFP
		if budget[cls] == 0 {
			continue
		}
		budget[cls]--
		sel = append(sel, e.idx)
	}
	return sel, budget
}

// randomQueue fills q with a random mix of ready, future, pending and
// tombstoned slots, with random pre-selection latches, keeping the
// invariants dispatch, wakeup, issue and compaction maintain: a slot's
// sched bit is set exactly when its ready time is not pending. In a
// split queue (fpOnly >= 0) every entry has that one class.
func randomQueue(rng *rand.Rand, q *issueQueue, flags []uint8, cycle int64, fpOnly int) {
	capacity := 1 + rng.Intn(100)
	q.reset(capacity, 1+rng.Intn(4))
	for n := rng.Intn(2*capacity + 1); len(q.entries) < n; {
		pos := len(q.entries)
		idx := int32(pos) // distinct per slot, so a pick names its slot
		flags[idx] = uint8(rng.Intn(2)) * dFP
		if fpOnly >= 0 {
			flags[idx] = uint8(fpOnly) * dFP
		}
		e := winEntry{idx: idx, src1: -1, src2: -1, preSelected: rng.Intn(2) == 0}
		r := int64(pending)
		switch rng.Intn(4) {
		case 0: // tombstone
			e.idx = -1
		case 1: // awaiting a producer
			e.src1 = 0
		default: // scheduled: ready now, in the past or in the future
			r = cycle + int64(rng.Intn(9)) - 4
		}
		q.entries = append(q.entries, e)
		q.ready = append(q.ready, r)
		if r != pending {
			q.sched[pos>>6] |= 1 << uint(pos&63)
		}
	}
}

// TestSelectReadyMatchesDenseScan is the differential test of the one
// selection scan: on randomized queues — unified and split, with and
// without partitioned selection, under partial budgets — selectReady
// picks exactly what the dense slot walk picks, leaves the same budgets,
// and returns a next-ready bound no later than the earliest cycle after
// this one at which a resident, scheduled, unselected entry could be
// selected.
func TestSelectReadyMatchesDenseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	flags := make([]uint8, 200)
	var q issueQueue
	for trial := 0; trial < 20000; trial++ {
		cycle := int64(100 + rng.Intn(1000))
		split := rng.Intn(2) == 0
		fpOnly := -1
		if split {
			fpOnly = rng.Intn(2)
		}
		randomQueue(rng, &q, flags, cycle, fpOnly)
		preSel := rng.Intn(2) == 0
		budget := [2]int{rng.Intn(5), rng.Intn(5)}
		if split {
			budget[fpOnly^1] = 0 // the caller hides the other class's budget
		}

		wantSel, wantBudget := denseSelect(flags, &q, cycle, budget, preSel)
		gotBudget := budget
		gotSel, next := selectReady(flags, &q, cycle, &gotBudget, preSel, nil)
		if !slices.Equal(gotSel, wantSel) || gotBudget != wantBudget {
			t.Fatalf("trial %d (split=%v preSel=%v budget=%v): selected %v leaving %v, dense scan selects %v leaving %v",
				trial, split, preSel, budget, gotSel, gotBudget, wantSel, wantBudget)
		}

		bound := int64(pending)
		for wi, r := range q.ready {
			if r == pending || slices.Contains(wantSel, int32(wi)) {
				continue
			}
			bound = min(bound, max(r, cycle+1))
		}
		if next <= cycle || next > bound {
			t.Fatalf("trial %d (split=%v preSel=%v budget=%v): next-ready bound %d, want in (%d, %d]",
				trial, split, preSel, budget, next, cycle, bound)
		}
	}
}
