package pipeline

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// runInOrder simulates the Section 4.1 machine: a seven-stage in-order
// pipeline (fetch, decode, issue, register read, execute, write back,
// commit) with the Alpha 21264's widths, scaled in depth exactly like the
// out-of-order core. Because issue is in program order, the simulation is
// a timestamp recurrence: each instruction issues at the earliest cycle
// that satisfies program order, issue bandwidth, operand readiness (with
// full bypass), and fetch delivery — no issue window exists.
func runInOrder(p Params, tr *trace.Trace, scr *Scratch, dec *traceDecode, warm *mem.Hierarchy) Stats {
	m := p.Machine
	tmg := p.Timing
	insts := tr.Insts
	n := len(insts)
	if n == 0 {
		panic("pipeline: empty trace")
	}
	flags := dec.flags // shared decode; see runOutOfOrder

	hier := scr.hierarchyFor(m, tr, warm)
	var lat latEnv
	lat.init(&p, hier)
	perfectBranches := m.PerfectBranches
	stats := Stats{}

	frontDepth := int64(maxInt(tmg.IL1, tmg.BPred) + 1) // fetch + decode
	commitDepth := int64(tmg.RegRead + 1 + 1)           // regread + wb + commit

	// Result availability for consumers. Zeroed (not pending) to match
	// the recurrence's contract: slot i is written at step i, and sources
	// always point backwards, so a zero is only ever read for a
	// malformed forward dependence — where it deterministically means
	// "ready", exactly as a freshly allocated array would.
	scr.arenas(n)
	times := scr.times
	for i := range times {
		times[i].data = 0
	}

	var (
		fetchCycle   int64 // cycle the current fetch group started
		fetchInGroup int   // instructions fetched this cycle
		issueCycle   int64 // last issue cycle assigned
		issueInCycle int   // instructions issued in issueCycle
		fpInCycle    int
		lastCommit   int64
		prevCommit   int64
		warmCycle    int64 = -1
		warmIdx            = p.Warmup
	)
	if warmIdx >= n {
		warmIdx = 0
	}

	for i := 0; i < n; i++ {
		in := &insts[i]
		f := flags[i]

		// ---- Fetch: bandwidth FetchWidth per cycle; a taken branch ends
		// the group; a mispredicted branch stalls fetch until it resolves
		// and the front end refills.
		if fetchInGroup >= m.FetchWidth {
			fetchCycle++
			fetchInGroup = 0
		}
		myFetch := fetchCycle
		fetchInGroup++

		// ---- Issue: in order, at most IntIssue+FPIssue per cycle with at
		// most FPIssue floating-point operations among them; operands must
		// be ready (full bypass from any producer).
		earliest := myFetch + frontDepth + 1 // decode → issue stage
		if earliest < issueCycle {
			earliest = issueCycle
		}
		ready := earliest
		if s1 := in.Src1; s1 >= 0 && times[s1].data > ready {
			ready = times[s1].data
		}
		if s2 := in.Src2; s2 >= 0 && times[s2].data > ready {
			ready = times[s2].data
		}

		// Find a cycle with issue bandwidth left.
		isFP := f&dFP != 0
		for {
			if ready > issueCycle {
				issueCycle = ready
				issueInCycle = 0
				fpInCycle = 0
			}
			if issueInCycle < m.IntIssue+m.FPIssue && (!isFP || fpInCycle < m.FPIssue) {
				break
			}
			ready = issueCycle + 1
		}
		issueInCycle++
		if isFP {
			fpInCycle++
		}
		issued := issueCycle

		// ---- Execute.
		execLat := lat.latency(f, in.Class, in.Addr, &stats)
		times[i].data = issued + execLat

		// ---- Branches: resolve at execute; a misprediction stalls fetch
		// until resolution plus the redirect.
		if f&dBranch != 0 {
			stats.BranchLookups++
			if f&dMispredict != 0 && !perfectBranches {
				stats.BranchMispredict++
				restart := issued + execLat + 1 + int64(p.ExtraMispredict)
				if restart > fetchCycle {
					fetchCycle = restart
					fetchInGroup = 0
				}
			} else if f&dTaken != 0 {
				// Correctly predicted taken branch: fetch group ends.
				fetchCycle++
				fetchInGroup = 0
			}
		}

		// ---- Commit: in order.
		c := times[i].data + commitDepth
		if c < prevCommit {
			c = prevCommit
		}
		prevCommit = c
		lastCommit = c
		if i == warmIdx {
			warmCycle = c
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
