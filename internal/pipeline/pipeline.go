// Package pipeline contains the cycle-level processor simulators at the
// heart of the reproduction: a dynamically scheduled (out-of-order) core
// modeled on the Alpha 21264 and an in-order variant of the same machine
// (Section 4.1). Both take their structure and operation latencies from a
// clock-resolved config.Timing, so scaling the pipeline depth is exactly
// the paper's methodology: pick a useful-FO4-per-stage value, derive every
// latency in cycles, and measure the IPC that survives.
//
// The out-of-order core models the critical loops the paper studies:
//
//   - the issue-wakeup loop: a dependent instruction can issue no earlier
//     than its producer's issue plus max(execution latency, wakeup-loop
//     length), where the loop length is the issue window's access latency
//     plus any Figure 8 extension;
//   - the load-use loop: loads resolve through the simulated cache
//     hierarchy, and consumers wait on the level that actually served them;
//   - the branch-resolution loop: mispredictions (from the simulated
//     tournament predictor) stall fetch until the branch executes, then
//     refill the front end, whose depth grows with clock frequency.
//
// Section 5's segmented instruction window is modeled structurally: tags
// walk one window segment per cycle, the window compacts oldest-first each
// cycle, and the partitioned selection scheme (Figure 12) limits how many
// instructions the upper stages may pre-select, one cycle ahead of the
// final selection.
//
// The simulated machine broadcasts a completing tag to every window entry
// each issue; the simulator itself does not. It walks the trace's consumer
// index (see trace.ConsumerIndex) and wakes exactly the issuing
// instruction's resident consumers, at the same segment-resolved cycle the
// broadcast would have delivered — event-driven simulation of a
// broadcast-structured machine, with Stats counters (WakeupWakes vs.
// WakeupScanned) recording the work avoided. All steady-state bookkeeping
// lives in a reusable Scratch, so a run allocates nothing per cycle.
package pipeline

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Params configures one simulation run.
type Params struct {
	Machine config.Machine
	Timing  config.Timing

	// Critical-loop extensions in cycles over the resolved latencies
	// (Figure 8 scales these over the Alpha 21264 baseline).
	ExtraWakeup     int
	ExtraLoadUse    int
	ExtraMispredict int

	// WindowStages pipelines the issue window's wakeup into this many
	// segments (Figure 10/11). 0 or 1 means a conventional single-segment
	// window.
	WindowStages int

	// PreSelect, when non-nil, enables the Figure 12 partitioned selection
	// scheme: entry i is the maximum number of instructions stage i+2 may
	// pre-select per cycle (the paper uses {5, 2, 1} for a 4-stage window).
	// Pre-selected instructions reach the final selector one cycle later;
	// stage 1 is always fully visible to the selector.
	PreSelect []int

	// NaivePipelining, when true, models the pessimistic window pipelining
	// Stark et al. argue against: the wakeup loop simply grows to
	// WindowStages cycles for every dependence, preventing back-to-back
	// issue of dependent instructions.
	NaivePipelining bool

	// Warmup is the number of leading instructions excluded from the
	// reported IPC (caches and predictor still train on them).
	Warmup int
}

// Stats is the outcome of a run.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64

	BranchLookups    uint64
	BranchMispredict uint64
	L1Hits           uint64
	L2Hits           uint64
	MemAccesses      uint64
	WindowFullStalls uint64
	ROBFullStalls    uint64

	// Diagnostics (out-of-order core only).
	SimCycles          uint64 // total simulated cycles including warmup
	SumWindowOcc       uint64 // window occupancy summed per cycle
	SumIssued          uint64 // instructions issued summed per cycle
	FetchBlockedCycles uint64 // cycles fetch was stalled on a mispredict

	// Wakeup accounting (out-of-order core only): WakeupWakes counts
	// operand wakeups actually delivered through the consumer index;
	// WakeupScanned counts the window entries a per-issue broadcast scan
	// would have examined for the same schedule. Their ratio is the
	// algorithmic saving of event-driven wakeup — the simulated machine
	// still pays for the full broadcast (that is the paper's subject),
	// the simulator no longer does.
	WakeupWakes   uint64
	WakeupScanned uint64
}

// AvgWindowOcc returns the mean issue-window occupancy per cycle.
func (s Stats) AvgWindowOcc() float64 {
	if s.SimCycles == 0 {
		return 0
	}
	return float64(s.SumWindowOcc) / float64(s.SimCycles)
}

// RunWith simulates tr on the configured machine and returns its
// statistics. All simulation state (predictor tables, cache hierarchy,
// window occupancy) lives in s, reused across calls: results are a pure
// function of (p, tr) for any scratch history — every run re-initializes
// the state it reads — but a Scratch must not be shared by concurrent
// calls. A nil s simulates on fresh state, which is how one-off
// simulations (the repro facade, examples, tests) call it; the sweep
// engine runs its grids through RunBatch on simulation state borrowed
// from internal/core's idle list. Concurrent calls may share tr: the
// trace is only read (immutable by contract, see internal/trace).
func RunWith(p Params, tr *trace.Trace, s *Scratch) Stats {
	if s == nil {
		s = NewScratch()
	}
	return runWith(p, tr, s, s.decode(tr, !p.Machine.InOrder), nil)
}

// runWith is one lane of RunWith or RunBatch: dec is the trace's decode,
// built by the caller (with its consumer index for an out-of-order lane),
// and warm, when non-nil, is a prewarmed memory-hierarchy template of the
// machine's geometry whose state is copied instead of re-walking the
// working set. A nil warm reproduces RunWith exactly; a correct template
// makes the two paths bit-identical (the template state is a pure
// function of geometry and trace — see RunBatch).
func runWith(p Params, tr *trace.Trace, s *Scratch, dec *traceDecode, warm *mem.Hierarchy) Stats {
	if s == nil {
		s = NewScratch()
	}
	if p.Machine.InOrder {
		return runInOrder(p, tr, s, dec, warm)
	}
	return runOutOfOrder(p, tr, s, dec, warm)
}

const pending = math.MaxInt64

// winEntry is one issue-window slot's cold state. Its readiness lives in
// the queue's parallel ready array (one timestamp per slot) so the
// selection scan touches eight bytes per entry and only selectable
// entries load the rest: acc accumulates the max wake time of the
// operands scheduled so far and becomes the ready timestamp when the
// last producer delivers.
type winEntry struct {
	acc         int64 // max wake time over the operands scheduled so far
	idx         int32 // trace index
	src1, src2  int32 // producer indices still awaited (-1 once resolved)
	preSelected bool  // latched by a pre-selection block (Figure 12)
}

func runOutOfOrder(p Params, tr *trace.Trace, scr *Scratch, dec *traceDecode, warm *mem.Hierarchy) Stats {
	m := p.Machine
	tmg := p.Timing
	insts := tr.Insts
	n := len(insts)
	if n == 0 {
		panic("pipeline: empty trace")
	}
	stages := p.WindowStages
	if stages < 1 {
		stages = 1
	}

	// The depth-invariant decode: class flags and the predictor's
	// per-branch verdicts, built once per call (see traceDecode). Fetch and
	// selection branch on these bytes; issue and dispatch read the
	// instruction's class, operands and address from the trace.
	flags := dec.flags

	// Issue queues: the 21264's separate integer and floating-point queues
	// by default, or one shared window when UnifiedWindow is set (the
	// Section 5 experiments use a unified 32-entry window). Segmentation
	// divides each queue into equal stages.
	// qpair picks an instruction's queue branch-free: dFP is bit 0, so
	// flags[i]&dFP is directly the index (both slots alias the shared
	// window when unified, and nq is 1).
	qpair, nq := scr.queues(m, stages)
	intQ, fpQ := qpair[0], qpair[1]

	// The reverse dependence adjacency: who consumes each instruction's
	// result. Built with the decode, it lets issue wake a producer's
	// actual consumers directly instead of re-scanning every window entry
	// per issued instruction.
	consumers := dec.consumers

	hier := scr.hierarchyFor(m, tr, warm)
	var lat latEnv
	lat.init(&p, hier)
	perfectBranches := m.PerfectBranches

	// Per-instruction dynamic state, reset to pending/-1 for this run.
	scr.arenas(n)
	times := scr.times       // paired data/complete timestamps (see instTimes)
	queuePos := scr.queuePos // issue-queue position while resident

	// Front-end depth in cycles: fetch (instruction cache / predictor),
	// decode, rename, dispatch.
	frontDepth := maxInt(tmg.IL1, tmg.BPred) + 1 + tmg.Rename + 1
	// The frontend pipeline holds FetchWidth instructions per stage for
	// frontDepth stages (plus slack for dispatch backpressure).
	frontCap := m.FetchWidth * (frontDepth + 2)
	wakeLoop := int64(tmg.Window + p.ExtraWakeup)
	extraMisp := int64(p.ExtraMispredict)
	if p.NaivePipelining {
		wakeLoop = int64(stages) + int64(p.ExtraWakeup)
	}

	// Frontend queue between fetch and dispatch: fetch and dispatch both
	// walk the trace in order, so the queue is the index range
	// [dispIdx, fetchIdx) with per-instruction arrival cycles in the
	// fetchReady arena.
	fetchReady := scr.fetchReady
	dispIdx := 0
	stats := Stats{}

	selected := scr.selScratch(m.IntIssue + m.FPIssue)
	// Partitioned selection latches entries one cycle ahead of issue, so
	// its queues must be scanned every cycle; everywhere else the
	// next-ready bound lets stall cycles skip the selection scan.
	preSel := p.PreSelect != nil && stages > 1
	segmented := stages > 1 && !p.NaivePipelining
	// Lazy compaction defers the removal of issued entries until the queue
	// arrays' slack is exhausted (see issueQueue.compact). It is valid
	// exactly when entry positions carry no semantics: single-segment
	// windows and naive pipelining wake every consumer with segment 0, and
	// partitioned selection is position-addressed, so segmented
	// non-preselect machines compact eagerly every issuing cycle.
	lazy := !preSel && (stages == 1 || p.NaivePipelining)
	var quota []int
	if preSel {
		quota = scr.quotaScratch(stages)
	}

	var (
		cycle      int64
		fetchIdx   int        // next trace index to fetch
		head       int        // oldest in-flight (ROB head)
		fetchBlock int32 = -1 // mispredicted branch blocking fetch
		// fetchResume is the cycle the blocking branch's redirect lands
		// (pending until it issues), kept in a register by the issue loop
		// so the fetch gate doesn't chase times[fetchBlock] every cycle.
		fetchResume int64 = pending
		warmCycle   int64 = -1
		warmIdx           = p.Warmup
		lastCommit  int64 // cycle the most recent commit happened
		lastHead    = -1
		stuckCycles int64
	)
	if warmIdx >= n {
		warmIdx = 0
	}

	for head < n {
		// ---- Commit: oldest first, up to CommitWidth, completed only.
		committed := 0
		// (pending is MaxInt64, so "complete < cycle" alone excludes
		// still-executing instructions.)
		for head < n && committed < m.CommitWidth && times[head].complete < cycle {
			head++
			committed++
		}
		if committed > 0 {
			lastCommit = cycle
			// head crosses warmIdx exactly once; the cycle it does is the
			// cycle instruction warmIdx commits.
			if warmCycle < 0 && head > warmIdx {
				warmCycle = cycle
			}
		}

		// ---- Selection and issue. Pre-selection latches (Figure 12) were
		// set at the end of the previous cycle via preSelected flags.
		// Queue occupancy is constant until issue removes entries, so the
		// per-cycle occupancy and the per-issue broadcast-scan size are
		// one sum up front.
		resident := intQ.live
		if nq == 2 {
			resident += fpQ.live
		}
		stats.SumWindowOcc += uint64(resident)
		budget := [2]int{m.IntIssue, m.FPIssue} // indexed by flags&dFP
		var issuedFrom [2]bool
		for qi := 0; qi < nq; qi++ {
			q := qpair[qi&1]
			if !preSel && cycle < q.nextReady {
				continue // provably nothing selectable this cycle
			}
			// A split queue holds one class: hiding the other class's
			// budget ends its scan as soon as its own budget is spent.
			var hidden int
			if nq == 2 {
				hidden, budget[qi^1] = budget[qi^1], 0
			}
			var issued []int32
			issued, q.nextReady = selectReady(flags, q, cycle, &budget, preSel, selected[:0])
			if nq == 2 {
				budget[qi^1] = hidden
			}
			stats.SumIssued += uint64(len(issued))
			if len(issued) > 0 {
				issuedFrom[qi] = true
			}
			for _, idx := range issued {
				// Non-memory instructions resolve to a fixed per-class
				// latency; only loads and stores pay the call into the
				// cache hierarchy.
				in := &insts[idx]
				var completeLat int64
				if f := flags[idx]; f&(dLoad|dStore) == 0 {
					completeLat = lat.exec[in.Class]
				} else {
					completeLat = lat.latency(f, in.Class, in.Addr, &stats)
				}
				d := cycle + maxInt64(completeLat, wakeLoop)
				times[idx] = instTimes{data: d, complete: cycle + completeLat}
				if idx == fetchBlock {
					fetchResume = cycle + completeLat + extraMisp
				}
				// Tombstone the issued entry; compaction removes it either
				// this cycle (eager) or when the arrays fill (lazy). Its
				// ready slot goes to pending so the selection scan skips
				// it, its operands were already resolved (src fields are
				// -1), so no same-cycle consumer walk can match it.
				pos := queuePos[idx] & qposMask
				q.entries[pos].idx = -1
				q.ready[pos] = pending
				q.sched[pos>>6] &^= 1 << uint(pos&63)
				q.live--
				if int(pos) < q.firstGap {
					q.firstGap = int(pos)
				}
				queuePos[idx] = -1
				// Wakeup. The machine broadcasts the completing tag across
				// every window entry; the simulator walks the consumer
				// index and delivers to the dependents actually resident in
				// a queue. With a segmented window the tag reaches segment
				// s at d + s, so a consumer sitting in segment s when the
				// producer issues sees its operand s cycles later (stage 1
				// sees it immediately, preserving back-to-back issue for
				// the oldest instructions). d always lands beyond the
				// current cycle, so delivery order within a cycle cannot
				// change this cycle's selection — exactly like the
				// broadcast scan this replaces.
				stats.WakeupScanned += uint64(resident)
				for _, c := range consumers.Consumers(idx) {
					pq := queuePos[c]
					if pq < 0 {
						continue // not dispatched yet, or operand resolved at dispatch
					}
					// queuePos carries the consumer's queue in its high
					// bit, so delivery needs no second lookup into flags.
					dq := qpair[pq>>qposQueueShift]
					pos := pq & qposMask
					e := &dq.entries[pos]
					seg := int64(0)
					if segmented {
						seg = int64(int(pos) / dq.segSize)
					}
					if e.src1 == idx {
						if w := d + seg; w > e.acc {
							e.acc = w
						}
						e.src1 = -1
						stats.WakeupWakes++
					}
					if e.src2 == idx {
						if w := d + seg; w > e.acc {
							e.acc = w
						}
						e.src2 = -1
						stats.WakeupWakes++
					}
					if e.src1 == -1 && e.src2 == -1 {
						// Fully scheduled: the entry becomes selectable
						// once both operands are visible; lower the
						// queue's next-ready bound to match.
						dq.ready[pos] = e.acc
						dq.sched[pos>>6] |= 1 << uint(pos&63)
						if e.acc < dq.nextReady {
							dq.nextReady = e.acc
						}
					}
				}
			}
		}
		// Remove issued entries (the paper's collapsing window). Machines
		// whose entry positions carry semantics compact every issuing
		// cycle; everyone else defers to dispatch, which compacts only
		// when a queue's array slack runs out.
		if !lazy {
			for qi := 0; qi < nq; qi++ {
				if issuedFrom[qi] {
					qpair[qi&1].compact(queuePos, int32(qi&1)<<qposQueueShift)
				}
			}
		}

		// ---- Pre-selection for next cycle (Figure 12).
		if preSel {
			for _, q := range qpair[:nq] {
				markPreSelections(p.PreSelect, q, cycle, stages, quota)
			}
		}

		// ---- Dispatch from the frontend queue into the issue queues.
		dispatchedNow := 0
		for dispIdx < fetchIdx && dispatchedNow < m.FetchWidth {
			if fetchReady[dispIdx] > cycle {
				break
			}
			di := int32(dispIdx)
			qsel := flags[di] & dFP
			q := qpair[qsel]
			if q.live >= q.cap {
				stats.WindowFullStalls++
				break
			}
			if dispIdx-head >= m.ROB {
				stats.ROBFullStalls++
				break
			}
			if len(q.entries) == cap(q.entries) {
				// Lazy mode: the array's slack is spent on tombstones
				// (live < cap guarantees there are some); reclaim it.
				q.compact(queuePos, int32(qsel)<<qposQueueShift)
			}
			in := &insts[di]
			e := winEntry{idx: di, src1: -1, src2: -1}
			w1 := resolveOperand(in.Src1, times, cycle, &e.src1)
			w2 := resolveOperand(in.Src2, times, cycle, &e.src2)
			if e.src1 == -1 && e.acc < w1 {
				e.acc = w1
			}
			if e.src2 == -1 && e.acc < w2 {
				e.acc = w2
			}
			readyAt := int64(pending)
			scheduled := e.src1 == -1 && e.src2 == -1
			if scheduled {
				// Dispatched fully scheduled: it can issue once both
				// operands are visible, no earlier than the next cycle
				// (dispatch follows this cycle's selection).
				readyAt = e.acc
				c := maxInt64(e.acc, cycle+1)
				if c < q.nextReady {
					q.nextReady = c
				}
			}
			pos := len(q.entries)
			queuePos[di] = int32(pos) | int32(qsel)<<qposQueueShift
			q.entries = append(q.entries, e)
			q.ready = append(q.ready, readyAt)
			if scheduled {
				q.sched[pos>>6] |= 1 << uint(pos&63)
			}
			q.live++
			dispIdx++
			dispatchedNow++
		}

		// ---- Fetch. A mispredicted branch blocks fetch until it resolves
		// (plus any Figure 8 extension of the misprediction loop); a
		// correctly-predicted taken branch just ends the fetch group.
		resumed := false
		if fetchBlock >= 0 && fetchResume <= cycle {
			fetchBlock = -1 // redirect complete; resume fetch
			fetchResume = pending
			resumed = true
		}
		fetched := false
		if fetchBlock < 0 {
			slots := m.FetchWidth
			arrive := cycle + int64(frontDepth)
			for slots > 0 && fetchIdx < n && fetchIdx-dispIdx < frontCap {
				fetched = true
				ff := flags[fetchIdx]
				fetchReady[fetchIdx] = arrive
				slots--
				if ff&dBranch != 0 {
					stats.BranchLookups++
					if ff&dMispredict != 0 && !perfectBranches {
						stats.BranchMispredict++
						fetchBlock = int32(fetchIdx)
						fetchIdx++
						break
					}
					if ff&dTaken != 0 {
						fetchIdx++
						break
					}
				}
				fetchIdx++
			}
		}

		if fetchBlock >= 0 {
			stats.FetchBlockedCycles++
		}
		stats.SimCycles++

		// ---- Watchdog.
		if head == lastHead {
			stuckCycles++
			if stuckCycles > 1_000_000 {
				panic(fmt.Sprintf("pipeline: no commit progress at cycle %d (head=%d, frontQ=%d)",
					cycle, head, fetchIdx-dispIdx))
			}
		} else {
			lastHead = head
			stuckCycles = 0
		}
		cycle++

		// ---- Idle fast-forward. A cycle that committed, issued,
		// dispatched, fetched and resumed nothing leaves no state behind
		// but the cycle counter, and the next cycle anything *can* happen
		// is bounded below by known timestamps: the ROB head's completion
		// (commit), each queue's next-ready bound (issue — a true lower
		// bound, see selectReady), the frontend queue's head arrival
		// (dispatch; a dispatch blocked on window or ROB space instead
		// waits on an issue or commit, which the first two bounds cover),
		// and the blocking branch's resolution (fetch). Jumping to the
		// earliest bound skips exactly the cycles the loop would have
		// walked through doing nothing — mispredict stalls and long memory
		// waits — after accounting their per-cycle statistics in bulk.
		// Partitioned selection couples consecutive cycles through its
		// latches, so it never skips.
		if committed == 0 && dispatchedNow == 0 && !fetched && !resumed &&
			!issuedFrom[0] && !issuedFrom[1] && !preSel {
			next := int64(pending)
			if c := times[head].complete; c != pending {
				next = c + 1
			}
			if intQ.nextReady < next {
				next = intQ.nextReady
			}
			if nq == 2 && fpQ.nextReady < next {
				next = fpQ.nextReady
			}
			if dispIdx < fetchIdx {
				if r := fetchReady[dispIdx]; r < next {
					next = r
				}
			}
			if fetchBlock >= 0 && fetchResume < next {
				next = fetchResume
			}
			if next > cycle && next != pending {
				skipped := uint64(next - cycle)
				stats.SimCycles += skipped
				stats.SumWindowOcc += uint64(resident) * skipped
				if fetchBlock >= 0 {
					stats.FetchBlockedCycles += skipped
				}
				cycle = next
			}
		}
	}

	total := uint64(n - warmIdx)
	if warmCycle < 0 {
		warmCycle = 0
		total = uint64(n)
	}
	cycles := uint64(lastCommit - warmCycle + 1)
	stats.Instructions = total
	stats.Cycles = cycles
	stats.IPC = float64(total) / float64(cycles)
	return stats
}

// resolveOperand computes the wake time of one operand at dispatch. If the
// producer has already issued, the scoreboard covers it and the operand is
// usable as soon as the value exists (completeAt — the wakeup loop taxes
// only in-window tag broadcasts, not register-file reads of older results).
// Otherwise the operand stays pending until the producer's issue delivers
// it through the consumer index.
func resolveOperand(src int32, times []instTimes, cycle int64, slot *int32) int64 {
	if src < 0 {
		return 0
	}
	t := &times[src]
	if t.data != pending {
		if c := t.complete; c > cycle {
			return c
		}
		return 0
	}
	*slot = src
	return pending
}

// issueQueue is one issue window (or one of the 21264's two queues),
// kept as parallel arrays: ready holds each slot's selection timestamp
// (the cycle both operands are visible, or pending while any operand
// still awaits its producer's wakeup) and entries the per-slot cold
// state, so the per-cycle selection scan walks a dense timestamp array.
type issueQueue struct {
	ready   []int64
	entries []winEntry
	cap     int
	segSize int // entries per wakeup segment

	// live counts the resident (non-tombstone) entries; it is the queue's
	// occupancy for capacity stalls and window-occupancy statistics. With
	// eager compaction live == len(entries) between cycles; with lazy
	// compaction issued entries linger as tombstones until the array's
	// slack runs out, so len(entries) overcounts.
	live int

	// firstGap is the oldest tombstoned slot, the position compaction can
	// start rewriting from (entries below it never move). intMax while the
	// queue has no tombstones.
	firstGap int

	// sched holds one bit per slot, set while the slot's entry is fully
	// scheduled (both operands resolved, ready[slot] != pending) — the
	// selection candidates. The per-cycle scan walks set bits instead of
	// every slot, so entries still awaiting a producer and tombstones cost
	// nothing. Maintained at dispatch, wakeup delivery, issue and
	// compaction, so every entry with ready <= cycle has its bit set.
	sched []uint64

	// nextReady is a lower bound on the next cycle at which any resident
	// entry could issue; while cycle < nextReady the selection scan is
	// skipped entirely (see selectReady for how the bound is maintained).
	// It is advisory-low only — a stale small value costs a wasted scan,
	// never a changed schedule — and is ignored under partitioned
	// selection, whose latches couple consecutive cycles.
	nextReady int64
}

const intMax = int(^uint(0) >> 1)

// queuePos slots pack the instruction's queue into one high bit next to
// its position, so wakeup delivery resolves a consumer's queue and slot
// with the single queuePos load (-1, the absent marker, stays negative).
const (
	qposQueueShift = 30
	qposMask       = 1<<qposQueueShift - 1
)

// reset configures the queue for a run, reusing the entry storage. The
// arrays carry a slack of one extra capacity so lazy compaction runs once
// per ~capacity dispatches instead of once per issuing cycle.
func (q *issueQueue) reset(capacity, stages int) {
	if cap(q.entries) < 2*capacity {
		q.entries = make([]winEntry, 0, 2*capacity)
		q.ready = make([]int64, 0, 2*capacity)
	}
	q.entries = q.entries[:0]
	q.ready = q.ready[:0]
	if words := (cap(q.entries) + 63) / 64; len(q.sched) < words {
		q.sched = make([]uint64, words)
	}
	for i := range q.sched {
		q.sched[i] = 0
	}
	q.cap = capacity
	q.segSize = (capacity + stages - 1) / stages
	q.live = 0
	q.firstGap = intMax
	q.nextReady = 0
}

// compact rewrites the queue's arrays without the tombstones of issued
// entries, restoring live == len(entries). Entries keep their relative
// (age) order; slots older than the first gap keep their positions, so
// the rewrite starts there. This is the paper's collapsing window: under
// eager compaction (segmented wakeup, whose visibility segments are
// position-dependent) it runs every issuing cycle; under lazy compaction
// it runs only when the array's slack is exhausted, amortizing the copies
// over ~capacity dispatches. qbit is the queue's qposQueueShift-encoded
// identity, re-stamped on every rewritten queuePos slot.
func (q *issueQueue) compact(queuePos []int32, qbit int32) {
	start := q.firstGap
	if start >= len(q.entries) {
		q.firstGap = intMax
		return
	}
	// The scheduled bitmap is position-indexed: bits below start stay (those
	// entries do not move), the rest are rebuilt in the same pass that
	// assigns the new positions.
	w0 := start >> 6
	q.sched[w0] &= 1<<uint(start&63) - 1
	for i := w0 + 1; i < len(q.sched); i++ {
		q.sched[i] = 0
	}
	keep := q.entries[:start]
	keepReady := q.ready[:start]
	for wi := start; wi < len(q.entries); wi++ {
		e := q.entries[wi]
		if e.idx >= 0 {
			pos := len(keep)
			queuePos[e.idx] = int32(pos) | qbit
			keep = append(keep, e)
			r := q.ready[wi]
			keepReady = append(keepReady, r)
			if r != pending {
				q.sched[pos>>6] |= 1 << uint(pos&63)
			}
		}
	}
	q.entries = keep
	q.ready = keepReady
	q.firstGap = intMax
}

// selectReady picks the instructions to issue from one queue this cycle,
// oldest first, charging each pick to the budget its class names
// (budget[flags[idx]&dFP]) and, under partitioned selection (preSel),
// passing over entries beyond stage 1 that no pre-selection block latched
// last cycle. It appends the picks to sel (caller scratch; never
// allocates at steady state) and returns the filled slice. A split queue
// holds one class, so its caller zeroes the other class's budget for the
// call: the scan then ends as soon as the queue's own budget is spent.
//
// The walk visits only fully scheduled entries: a set sched bit is
// exactly ready != pending, so entries still awaiting a producer and
// tombstones cost nothing, and every entry with ready <= cycle is visited.
//
// The second result is the queue's next-ready bound: the earliest cycle
// at which this queue could select anything, given what this scan saw. A
// scheduled entry contributes its ready time; an entry that was ready but
// lost to a budget or a missing latch (it stays resident) forces cycle+1,
// and so does a ready entry met once both budgets are spent, which ends
// the scan. Entries still awaiting a producer contribute nothing — the
// wakeup delivery that schedules them lowers the queue's bound at
// delivery time. Wake
// deliveries always land beyond the current cycle (every resolved latency
// is at least one cycle), so the bound being a true lower bound means
// skipped scans select exactly what a real scan would have: nothing.
// Partitioned selection never reads the bound.
func selectReady(flags []uint8, q *issueQueue, cycle int64, budget *[2]int, preSel bool, sel []int32) ([]int32, int64) {
	nextReady := int64(pending)
	ready := q.ready
	for k, w := range q.sched[:uint(len(ready)+63)>>6] {
		for w != 0 {
			wi := k<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if r := ready[wi]; r > cycle {
				if r < nextReady {
					nextReady = r
				}
				continue
			}
			if budget[0] == 0 && budget[1] == 0 {
				return sel, cycle + 1
			}
			e := &q.entries[wi]
			cls := flags[e.idx] & dFP
			if budget[cls] == 0 || preSel && wi >= q.segSize && !e.preSelected {
				nextReady = cycle + 1
				continue
			}
			budget[cls]--
			sel = append(sel, e.idx)
		}
	}
	return sel, nextReady
}

// markPreSelections implements the Figure 12 pre-selection blocks: each
// stage beyond the first examines its ready instructions and latches up to
// its quota for the selector to consider next cycle. quota is caller
// scratch of at least stages slots, overwritten on every call.
func markPreSelections(preSelect []int, q *issueQueue, cycle int64, stages int, quota []int) {
	for s := 1; s < stages; s++ {
		n := 0
		if s-1 < len(preSelect) {
			n = preSelect[s-1]
		}
		quota[s] = n
	}
	ready := q.ready
	for wi := range q.entries {
		e := &q.entries[wi]
		s := wi / q.segSize
		if s == 0 {
			continue
		}
		e.preSelected = false
		if s < stages && quota[s] > 0 && ready[wi] <= cycle {
			e.preSelected = true
			quota[s]--
		}
	}
}

// latEnv is the per-run execution-latency context: the clock-resolved
// per-class latencies and the memory system flattened out of Params, so
// the per-issue hot path reads a few scalars instead of copying the
// whole Params struct per instruction.
type latEnv struct {
	exec          [isa.NumClasses]int64
	dl1, l2, mem  int64
	extraLoadUse  int64
	perfectMemory bool
	hier          *mem.Hierarchy
}

func (e *latEnv) init(p *Params, hier *mem.Hierarchy) {
	for c := 0; c < isa.NumClasses; c++ {
		e.exec[c] = int64(p.Timing.Exec[c])
	}
	e.dl1 = int64(p.Timing.DL1)
	e.l2 = int64(p.Timing.L2)
	e.mem = int64(p.Timing.Mem)
	e.extraLoadUse = int64(p.ExtraLoadUse)
	e.perfectMemory = p.Machine.PerfectMemory
	e.hier = hier
}

// latency returns the total execution latency of an instruction in
// cycles, resolving loads through the cache hierarchy.
func (e *latEnv) latency(f uint8, cls isa.Class, addr uint64, stats *Stats) int64 {
	switch {
	case f&dLoad != 0:
		lvl := mem.L1Hit
		if !e.perfectMemory {
			lvl = e.hier.Access(addr)
		}
		// Table 3's DL1 row is the full load-use latency (the 21264's row
		// reads 3 cycles, its real load-use delay); L2 and memory
		// latencies are likewise total hit latencies.
		var lat int64
		switch lvl {
		case mem.L1Hit:
			stats.L1Hits++
			lat = e.dl1
		case mem.L2Hit:
			stats.L2Hits++
			lat = e.l2
		default:
			stats.MemAccesses++
			lat = e.mem
		}
		return lat + e.extraLoadUse
	case f&dStore != 0:
		if !e.perfectMemory {
			e.hier.Access(addr)
		}
		return e.exec[isa.Store]
	default:
		return e.exec[cls]
	}
}

// newHierarchy builds the machine's data memory system.
func newHierarchy(m config.Machine) *mem.Hierarchy {
	if m.Cray1SMemory {
		return mem.NewFlat()
	}
	s := m.Structures
	return mem.NewHierarchy(
		mem.NewCache(s.DL1.CapacityBytes, s.DL1.BlockBytes, s.DL1.Assoc),
		mem.NewCache(s.L2.CapacityBytes, s.L2.BlockBytes, s.L2.Assoc),
	)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
