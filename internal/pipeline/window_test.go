package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
)

// chainTrace builds a tiny hand-crafted trace: a strict dependence chain
// of n single-cycle ALU operations, each depending on its predecessor.
func chainTrace(n int) *trace.Trace {
	tr := &trace.Trace{Name: "chain", Group: trace.Integer}
	for i := 0; i < n; i++ {
		in := trace.Inst{Class: isa.IntAlu, Src1: int32(i - 1), Src2: -1}
		tr.Insts = append(tr.Insts, in)
	}
	return tr
}

// independentTrace builds n ALU operations with no dependences at all.
func independentTrace(n int) *trace.Trace {
	tr := &trace.Trace{Name: "indep", Group: trace.Integer}
	for i := 0; i < n; i++ {
		tr.Insts = append(tr.Insts, trace.Inst{Class: isa.IntAlu, Src1: -1, Src2: -1})
	}
	return tr
}

func alphaParams() Params {
	m := config.Alpha21264()
	return Params{Machine: m, Timing: config.Alpha21264Timing()}
}

func TestChainIPCBoundedByLatency(t *testing.T) {
	// A strict single-cycle chain can never exceed IPC 1 and should get
	// close to it on the Alpha-latency machine (back-to-back issue).
	s := RunWith(alphaParams(), chainTrace(20000), nil)
	if s.IPC > 1.001 {
		t.Errorf("chain IPC = %.3f, above the dataflow bound of 1", s.IPC)
	}
	if s.IPC < 0.9 {
		t.Errorf("chain IPC = %.3f; back-to-back issue should approach 1", s.IPC)
	}
}

func TestIndependentCodeReachesIssueWidth(t *testing.T) {
	// Fully independent ALU operations should saturate the 4-wide integer
	// issue (fetch is also 4-wide, so 4 is the machine bound).
	s := RunWith(alphaParams(), independentTrace(20000), nil)
	if s.IPC < 3.5 || s.IPC > 4.001 {
		t.Errorf("independent IPC = %.3f, want ~4 (issue width)", s.IPC)
	}
}

func TestNaivePipeliningSlowsChainByDepth(t *testing.T) {
	// Under naive W-stage window pipelining a dependent pair issues every
	// W cycles: chain IPC ≈ 1/W. The segmented window must do far better
	// because the chain's head lives in stage 1.
	p := alphaParams()
	p.Machine.UnifiedWindow = 32
	p.WindowStages = 4
	p.NaivePipelining = true
	naive := RunWith(p, chainTrace(10000), nil)
	if naive.IPC > 0.27 || naive.IPC < 0.2 {
		t.Errorf("naive 4-stage chain IPC = %.3f, want ~0.25", naive.IPC)
	}

	p.NaivePipelining = false
	seg := RunWith(p, chainTrace(10000), nil)
	if seg.IPC < 0.9 {
		t.Errorf("segmented chain IPC = %.3f; stage-1 back-to-back issue lost", seg.IPC)
	}
}

func TestSegmentedWindowPenalizesDistantDependents(t *testing.T) {
	// Construct bursts: one producer followed by many independent fillers
	// and then a dependent far enough back in the window to sit in an
	// upper segment when the producer issues. Segmentation should cost
	// measurable IPC versus a single-segment window on this pattern,
	// because the filler pressure keeps the window full.
	tr := &trace.Trace{Name: "burst", Group: trace.Integer}
	const n = 30000
	for i := 0; i < n; i++ {
		in := trace.Inst{Class: isa.IntMult, Src1: -1, Src2: -1}
		if i%8 == 7 {
			in = trace.Inst{Class: isa.IntAlu, Src1: int32(i - 7), Src2: -1}
		}
		tr.Insts = append(tr.Insts, in)
	}
	p := alphaParams()
	p.Machine.UnifiedWindow = 32
	base := RunWith(p, tr, nil)
	p.WindowStages = 8
	seg := RunWith(p, tr, nil)
	if seg.IPC > base.IPC {
		t.Errorf("segmentation improved IPC (%.3f > %.3f)", seg.IPC, base.IPC)
	}
}

func TestPreSelectQuotasRespected(t *testing.T) {
	// Build a stream whose oldest window entries are blocked: a serial
	// multiply chain interleaved with independent ALU work. The ready ALU
	// operations then sit in the upper window stages, where they can only
	// issue through the pre-selection quotas — zero quotas must cost IPC
	// versus the paper's 5/2/1.
	// Groups of 31: an L2-hit load, ten consumers of it (they pile up in
	// stage 1, operand-blocked for the ~20-cycle L2 latency), then twenty
	// independent ALU operations that land in the upper stages.
	tr := &trace.Trace{Name: "blocked", Group: trace.Integer, HotBytes: 16 << 10, WarmBytes: 2 << 20}
	tr.PrefetchCoverage = 1e-9 // no prefetch: keep the loads missing L1
	const groups = 600
	addr := uint64(0)
	for g := 0; g < groups; g++ {
		base := int32(len(tr.Insts))
		addr = (addr + 4096) % (1 << 20) // stride past the L1, stay in the warm L2
		tr.Insts = append(tr.Insts, trace.Inst{Class: isa.Load, Src1: -1, Src2: -1, Addr: addr})
		for k := 0; k < 10; k++ {
			tr.Insts = append(tr.Insts, trace.Inst{Class: isa.IntAlu, Src1: base, Src2: -1})
		}
		for k := 0; k < 20; k++ {
			tr.Insts = append(tr.Insts, trace.Inst{Class: isa.IntAlu, Src1: -1, Src2: -1})
		}
	}
	p := alphaParams()
	p.Machine.UnifiedWindow = 32
	p.WindowStages = 4
	p.PreSelect = []int{0, 0, 0}
	zero := RunWith(p, tr, nil)

	p.PreSelect = []int{5, 2, 1}
	some := RunWith(p, tr, nil)
	if zero.IPC >= some.IPC {
		t.Errorf("pre-select quotas did not help (%.3f vs %.3f)", zero.IPC, some.IPC)
	}
}

func TestUnifiedWindowMatchesSplitOnIntOnlyCode(t *testing.T) {
	// Integer-only code never touches the FP queue: a unified window of
	// the same total size should perform at least as well as the split.
	tr := independentTrace(20000)
	split := RunWith(alphaParams(), tr, nil)
	p := alphaParams()
	p.Machine.UnifiedWindow = 35
	unified := RunWith(p, tr, nil)
	if unified.IPC < split.IPC*0.98 {
		t.Errorf("unified window slower (%.3f) than split (%.3f) on int-only code",
			unified.IPC, split.IPC)
	}
}

func TestLoadChainGatedByDL1Latency(t *testing.T) {
	// A pointer-chase (each load's address depends on the previous load)
	// is bounded by 1/DL1 IPC. All addresses hit the same line, so every
	// access is an L1 hit.
	tr := &trace.Trace{Name: "ptrchase", Group: trace.Integer, HotBytes: 4096, WarmBytes: 32 << 10}
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Insts = append(tr.Insts, trace.Inst{Class: isa.Load, Src1: int32(i - 1), Src2: -1, Addr: 64})
	}
	tr.PrefetchCoverage = 1
	p := alphaParams() // DL1 = 3 cycles on the 21264
	s := RunWith(p, tr, nil)
	want := 1.0 / 3
	if s.IPC > want*1.05 || s.IPC < want*0.85 {
		t.Errorf("pointer-chase IPC = %.3f, want ~%.3f (1/DL1)", s.IPC, want)
	}
}
