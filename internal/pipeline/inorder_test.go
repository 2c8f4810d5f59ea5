package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/isa"
	"repro/internal/trace"
)

func inorderParams() Params {
	m := config.InOrder7Stage()
	return Params{Machine: m, Timing: config.Alpha21264Timing()}
}

func TestInOrderChainSerializes(t *testing.T) {
	// An in-order machine on a strict chain is bounded by the ALU latency
	// exactly like the out-of-order one (nothing to reorder).
	s := RunWith(inorderParams(), chainTrace(20000), nil)
	if s.IPC > 1.001 {
		t.Errorf("in-order chain IPC = %.3f > 1", s.IPC)
	}
}

func TestInOrderIndependentBoundedByIssueWidth(t *testing.T) {
	// Independent ops run at the fetch/issue width.
	s := RunWith(inorderParams(), independentTrace(20000), nil)
	if s.IPC < 3.0 || s.IPC > 4.001 {
		t.Errorf("in-order independent IPC = %.3f, want ~4", s.IPC)
	}
}

func TestInOrderStallsOnLoadUse(t *testing.T) {
	// In-order issue cannot slip past a load-use dependence: interleaving
	// loads with dependent consumers costs roughly the DL1 latency per
	// pair, where the out-of-order core overlaps independent pairs.
	tr := &trace.Trace{Name: "loaduse", Group: trace.Integer, HotBytes: 4096, WarmBytes: 32 << 10}
	tr.PrefetchCoverage = 1
	for i := 0; i < 20000; i += 2 {
		tr.Insts = append(tr.Insts,
			trace.Inst{Class: isa.Load, Src1: -1, Src2: -1, Addr: 64},
			trace.Inst{Class: isa.IntAlu, Src1: int32(i), Src2: -1})
	}
	ino := RunWith(inorderParams(), tr, nil)

	m := config.Alpha21264()
	ooo := RunWith(Params{Machine: m, Timing: config.Alpha21264Timing()}, tr, nil)
	if ooo.IPC <= ino.IPC*1.3 {
		t.Errorf("OoO (%.3f) should clearly beat in-order (%.3f) on load-use pairs",
			ooo.IPC, ino.IPC)
	}
	// In-order bound: 2 instructions per ~DL1(3)+1 cycles.
	if ino.IPC > 1.0 {
		t.Errorf("in-order load-use IPC = %.3f, above the stall bound", ino.IPC)
	}
}

func TestInOrderFPWidthRespected(t *testing.T) {
	// A pure FP-add stream is capped by the 2-wide FP issue.
	tr := &trace.Trace{Name: "fp", Group: trace.VectorFP}
	for i := 0; i < 20000; i++ {
		tr.Insts = append(tr.Insts, trace.Inst{Class: isa.FPAdd, Src1: -1, Src2: -1})
	}
	s := RunWith(inorderParams(), tr, nil)
	if s.IPC > 2.001 {
		t.Errorf("FP stream IPC = %.3f, above the 2-wide FP issue", s.IPC)
	}
	if s.IPC < 1.6 {
		t.Errorf("FP stream IPC = %.3f; independent adds should near the width", s.IPC)
	}
}

func TestInOrderMispredictsCostMoreAtDepth(t *testing.T) {
	// The same benchmark at a deeper clock pays a longer refill per
	// mispredict: IPC must fall.
	prof, _ := trace.ByName("176.gcc")
	tr := prof.Generate(30000, 1)
	m := config.InOrder7Stage()
	shallow := RunWith(Params{Machine: m, Timing: m.Resolve(clockAtUseful(12)), Warmup: 6000}, tr, nil)
	deep := RunWith(Params{Machine: m, Timing: m.Resolve(clockAtUseful(3)), Warmup: 6000}, tr, nil)
	if deep.IPC >= shallow.IPC {
		t.Errorf("deep in-order IPC (%.3f) not below shallow (%.3f)", deep.IPC, shallow.IPC)
	}
}

func TestInOrderBelowOutOfOrderOnSuite(t *testing.T) {
	// Figure 5 vs Figure 4b: dynamic scheduling wins on every benchmark
	// group representative.
	for _, name := range []string{"176.gcc", "171.swim", "177.mesa"} {
		prof, _ := trace.ByName(name)
		tr := prof.Generate(30000, 1)
		mI := config.InOrder7Stage()
		mO := config.Alpha21264()
		clk := clockAtUseful(6)
		ino := RunWith(Params{Machine: mI, Timing: mI.Resolve(clk), Warmup: 6000}, tr, nil)
		ooo := RunWith(Params{Machine: mO, Timing: mO.Resolve(clk), Warmup: 6000}, tr, nil)
		if ooo.IPC <= ino.IPC {
			t.Errorf("%s: OoO (%.3f) not above in-order (%.3f)", name, ooo.IPC, ino.IPC)
		}
	}
}

func clockAtUseful(u float64) fo4.Clock {
	return fo4.Clock{Useful: u, Overhead: fo4.PaperOverhead}
}
