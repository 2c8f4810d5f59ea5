package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/trace"
)

// benchTrace caches generated traces across tests.
var benchTraces = map[string]*trace.Trace{}

func getTrace(t testing.TB, name string, n int) *trace.Trace {
	t.Helper()
	key := name
	if tr, ok := benchTraces[key]; ok && len(tr.Insts) >= n {
		return tr
	}
	p, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	tr := p.Generate(n, 1)
	benchTraces[key] = tr
	return tr
}

func paramsAt(useful float64) Params {
	m := config.Alpha21264()
	clk := fo4.Clock{Useful: useful, Overhead: fo4.PaperOverhead}
	return Params{Machine: m, Timing: m.Resolve(clk), Warmup: 8000}
}

func TestRunDeterministic(t *testing.T) {
	tr := getTrace(t, "176.gcc", 40000)
	a := RunWith(paramsAt(6), tr, nil)
	b := RunWith(paramsAt(6), tr, nil)
	if a != b {
		t.Errorf("identical runs differ: %+v vs %+v", a, b)
	}
}

func TestIPCWithinPhysicalBounds(t *testing.T) {
	for _, name := range []string{"176.gcc", "171.swim", "177.mesa"} {
		tr := getTrace(t, name, 40000)
		s := RunWith(paramsAt(6), tr, nil)
		if s.IPC <= 0 || s.IPC > 6 {
			t.Errorf("%s: IPC = %v outside (0, issue width]", name, s.IPC)
		}
		if s.Cycles == 0 || s.Instructions == 0 {
			t.Errorf("%s: empty stats", name)
		}
	}
}

func TestOutOfOrderBeatsInOrder(t *testing.T) {
	tr := getTrace(t, "176.gcc", 40000)
	ooo := RunWith(paramsAt(6), tr, nil)

	p := paramsAt(6)
	p.Machine.InOrder = true
	ino := RunWith(p, tr, nil)
	if ooo.IPC <= ino.IPC {
		t.Errorf("OoO IPC (%.3f) not above in-order IPC (%.3f)", ooo.IPC, ino.IPC)
	}
}

func TestDeeperClockLowersIPC(t *testing.T) {
	// IPC must fall monotonically as the pipeline deepens (latencies in
	// cycles grow): the effect behind every figure in the paper.
	for _, name := range []string{"176.gcc", "171.swim"} {
		tr := getTrace(t, name, 40000)
		prev := -1.0
		for _, u := range []float64{2, 4, 6, 8, 12, 16} {
			s := RunWith(paramsAt(u), tr, nil)
			if prev > 0 && s.IPC <= prev {
				t.Errorf("%s: IPC did not increase from deeper to shallower at t=%v", name, u)
			}
			prev = s.IPC
		}
	}
}

func TestCriticalLoopExtensionsHurt(t *testing.T) {
	tr := getTrace(t, "176.gcc", 40000)
	base := RunWith(paramsAt(6), tr, nil).IPC
	for name, mod := range map[string]func(*Params){
		"wakeup":    func(p *Params) { p.ExtraWakeup = 4 },
		"load-use":  func(p *Params) { p.ExtraLoadUse = 4 },
		"mispredct": func(p *Params) { p.ExtraMispredict = 4 },
	} {
		p := paramsAt(6)
		mod(&p)
		if got := RunWith(p, tr, nil).IPC; got >= base {
			t.Errorf("extending %s loop did not lower IPC (%.3f vs %.3f)", name, got, base)
		}
	}
}

func TestIssueWakeupMostCritical(t *testing.T) {
	// Figure 8's ordering on a single benchmark: stretching issue-wakeup
	// costs more than load-use, which costs more than mispredict.
	tr := getTrace(t, "176.gcc", 40000)
	m := config.Alpha21264()
	base := Params{Machine: m, Timing: config.Alpha21264Timing(), Warmup: 8000}
	ipc := func(mod func(*Params)) float64 {
		p := base
		mod(&p)
		return RunWith(p, tr, nil).IPC
	}
	w := ipc(func(p *Params) { p.ExtraWakeup = 8 })
	l := ipc(func(p *Params) { p.ExtraLoadUse = 8 })
	b := ipc(func(p *Params) { p.ExtraMispredict = 8 })
	if !(w < l && l < b) {
		t.Errorf("loop sensitivity ordering violated: wakeup %.3f, load-use %.3f, mispredict %.3f", w, l, b)
	}
}

func TestSegmentedWindowMonotone(t *testing.T) {
	tr := getTrace(t, "176.gcc", 40000)
	m := config.Alpha21264()
	m.UnifiedWindow = 32
	base := Params{Machine: m, Timing: config.Alpha21264Timing(), Warmup: 8000}
	prev := -1.0
	var first float64
	for stages := 1; stages <= 10; stages++ {
		p := base
		p.WindowStages = stages
		got := RunWith(p, tr, nil).IPC
		if stages == 1 {
			first = got
		}
		if prev > 0 && got > prev*1.002 {
			t.Errorf("IPC rose when pipelining the window deeper (stages %d: %.4f > %.4f)", stages, got, prev)
		}
		prev = got
	}
	if loss := 1 - prev/first; loss < 0.03 || loss > 0.35 {
		t.Errorf("10-stage window loss = %.1f%%, want a moderate degradation", loss*100)
	}
}

func TestSegmentationBeatsNaivePipelining(t *testing.T) {
	// Section 5's claim: segmenting the window preserves back-to-back
	// issue for nearby dependents, so it loses far less IPC than naive
	// pipelining at the same depth.
	tr := getTrace(t, "176.gcc", 40000)
	m := config.Alpha21264()
	m.UnifiedWindow = 32
	base := Params{Machine: m, Timing: config.Alpha21264Timing(), Warmup: 8000}

	seg := base
	seg.WindowStages = 4
	naive := base
	naive.WindowStages = 4
	naive.NaivePipelining = true

	segIPC := RunWith(seg, tr, nil).IPC
	naiveIPC := RunWith(naive, tr, nil).IPC
	if segIPC <= naiveIPC {
		t.Errorf("segmented (%.3f) not better than naive pipelining (%.3f)", segIPC, naiveIPC)
	}
}

func TestPreSelectCostsLittle(t *testing.T) {
	// The Figure 12 partitioned selection restricts the upper stages'
	// visibility: IPC drops relative to full select, but only modestly.
	tr := getTrace(t, "176.gcc", 40000)
	m := config.Alpha21264()
	m.UnifiedWindow = 32
	base := Params{Machine: m, Timing: config.Alpha21264Timing(), Warmup: 8000}

	conv := RunWith(base, tr, nil).IPC
	sel := base
	sel.WindowStages = 4
	sel.PreSelect = []int{5, 2, 1}
	got := RunWith(sel, tr, nil).IPC
	rel := got / conv
	if rel >= 1.0 || rel < 0.80 {
		t.Errorf("partitioned select relative IPC = %.3f, want a small loss", rel)
	}
}

func TestPerfectMemoryHelps(t *testing.T) {
	tr := getTrace(t, "181.mcf", 40000)
	base := RunWith(paramsAt(6), tr, nil).IPC
	p := paramsAt(6)
	p.Machine.PerfectMemory = true
	if got := RunWith(p, tr, nil).IPC; got <= base {
		t.Errorf("perfect memory did not help mcf (%.3f vs %.3f)", got, base)
	}
}

func TestPerfectBranchesHelp(t *testing.T) {
	tr := getTrace(t, "176.gcc", 40000)
	base := RunWith(paramsAt(6), tr, nil)
	p := paramsAt(6)
	p.Machine.PerfectBranches = true
	got := RunWith(p, tr, nil)
	if got.IPC <= base.IPC {
		t.Errorf("perfect branches did not help gcc (%.3f vs %.3f)", got.IPC, base.IPC)
	}
	if got.BranchMispredict != 0 {
		t.Errorf("perfect branches still mispredicted %d times", got.BranchMispredict)
	}
}

func TestSmallerWindowLowersIPC(t *testing.T) {
	tr := getTrace(t, "171.swim", 40000)
	base := RunWith(paramsAt(6), tr, nil).IPC
	p := paramsAt(6)
	p.Machine.IntWindow = 4
	p.Machine.FPWindow = 4
	if got := RunWith(p, tr, nil).IPC; got >= base {
		t.Errorf("tiny window did not lower IPC (%.3f vs %.3f)", got, base)
	}
}

func TestLoadStatsAccountAllLoads(t *testing.T) {
	tr := getTrace(t, "176.gcc", 40000)
	s := RunWith(paramsAt(6), tr, nil)
	var loads uint64
	for _, in := range tr.Insts {
		if in.Class.String() == "load" {
			loads++
		}
	}
	if got := s.L1Hits + s.L2Hits + s.MemAccesses; got != loads {
		t.Errorf("load accounting: %d classified vs %d loads in trace", got, loads)
	}
}

func TestInOrderDeterministicAndBounded(t *testing.T) {
	tr := getTrace(t, "252.eon", 40000)
	p := paramsAt(6)
	p.Machine.InOrder = true
	a := RunWith(p, tr, nil)
	b := RunWith(p, tr, nil)
	if a != b {
		t.Error("in-order runs differ")
	}
	if a.IPC <= 0 || a.IPC > float64(p.Machine.IntIssue+p.Machine.FPIssue) {
		t.Errorf("in-order IPC = %v out of bounds", a.IPC)
	}
}

func TestEmptyTracePanics(t *testing.T) {
	for _, inorder := range []bool{false, true} {
		p := paramsAt(6)
		p.Machine.InOrder = inorder
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("inorder=%v: expected panic on empty trace", inorder)
				}
			}()
			RunWith(p, &trace.Trace{Name: "empty"}, nil)
		}()
	}
}

func TestCrayMachineRunsFlat(t *testing.T) {
	tr := getTrace(t, "176.gcc", 40000)
	m := config.Cray1SMemorySystem()
	clk := fo4.Clock{Useful: 6, Overhead: fo4.PaperOverhead}
	s := RunWith(Params{Machine: m, Timing: m.Resolve(clk), Warmup: 8000}, tr, nil)
	if s.L1Hits != 0 || s.L2Hits != 0 {
		t.Errorf("Cray mode recorded cache hits: L1=%d L2=%d", s.L1Hits, s.L2Hits)
	}
	if s.MemAccesses == 0 {
		t.Error("Cray mode recorded no memory accesses")
	}
}
