package trace

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/isa"
)

func TestGenerateDeterministic(t *testing.T) {
	p, ok := ByName("164.gzip")
	if !ok {
		t.Fatal("missing gzip profile")
	}
	a := p.Generate(5000, 42)
	b := p.Generate(5000, 42)
	if len(a.Insts) != len(b.Insts) {
		t.Fatal("lengths differ")
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("instruction %d differs between identical generations", i)
		}
	}
	c := p.Generate(5000, 43)
	same := 0
	for i := range a.Insts {
		if a.Insts[i] == c.Insts[i] {
			same++
		}
	}
	if same == len(a.Insts) {
		t.Error("different seeds produced identical traces")
	}
}

func TestDependenciesPointBackwardToProducers(t *testing.T) {
	for _, p := range SPEC2000() {
		tr := p.Generate(20000, 7)
		for i, in := range tr.Insts {
			for _, s := range []int32{in.Src1, in.Src2} {
				if s < -1 || s >= int32(i) {
					t.Fatalf("%s inst %d: source %d out of range", p.Name, i, s)
				}
				if s >= 0 {
					c := tr.Insts[s].Class
					if c == isa.Store || c == isa.Branch {
						t.Fatalf("%s inst %d depends on non-producer %v", p.Name, i, c)
					}
				}
			}
		}
	}
}

func TestSuiteComposition(t *testing.T) {
	all := SPEC2000()
	if len(all) != 18 {
		t.Fatalf("suite has %d benchmarks, want 18 (Table 2)", len(all))
	}
	if n := len(ByGroup(Integer)); n != 9 {
		t.Errorf("integer count = %d, want 9", n)
	}
	if n := len(ByGroup(VectorFP)); n != 4 {
		t.Errorf("vector FP count = %d, want 4", n)
	}
	if n := len(ByGroup(NonVectorFP)); n != 5 {
		t.Errorf("non-vector FP count = %d, want 5", n)
	}
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.Name] {
			t.Errorf("duplicate benchmark %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestMixRealized(t *testing.T) {
	// The generated class frequencies track the profile weights.
	for _, name := range []string{"176.gcc", "171.swim"} {
		p, _ := ByName(name)
		tr := p.Generate(60000, 11)
		var counts [isa.NumClasses]int
		for _, in := range tr.Insts {
			counts[in.Class]++
		}
		total := 0.0
		for _, w := range p.Mix {
			total += w
		}
		for c := 0; c < isa.NumClasses; c++ {
			want := p.Mix[c] / total
			got := float64(counts[c]) / float64(len(tr.Insts))
			if want > 0.02 && (got < want*0.8 || got > want*1.2) {
				t.Errorf("%s class %v: frequency %.3f, want ~%.3f", name, isa.Class(c), got, want)
			}
		}
	}
}

func TestVectorCodesHaveMoreILP(t *testing.T) {
	// Mean dependency distance must be much larger for vector FP than for
	// integer benchmarks — the property behind Figure 4a/5's ordering.
	meanDist := func(tr *Trace) float64 {
		var sum, n float64
		for i, in := range tr.Insts {
			if in.Src1 >= 0 {
				sum += float64(int32(i) - in.Src1)
				n++
			}
		}
		return sum / n
	}
	gcc, _ := ByName("176.gcc")
	swim, _ := ByName("171.swim")
	dInt := meanDist(gcc.Generate(40000, 3))
	dVec := meanDist(swim.Generate(40000, 3))
	if dVec < 2*dInt {
		t.Errorf("vector dep distance (%.1f) not ≫ integer (%.1f)", dVec, dInt)
	}
}

func TestBranchOutcomesVaryBySite(t *testing.T) {
	p, _ := ByName("171.swim")
	tr := p.Generate(50000, 5)
	taken, branches := 0, 0
	for _, in := range tr.Insts {
		if in.Class == isa.Branch {
			branches++
			if in.Taken {
				taken++
			}
		}
	}
	if branches == 0 {
		t.Fatal("no branches generated")
	}
	// Vector code: loop branches are overwhelmingly taken.
	frac := float64(taken) / float64(branches)
	if frac < 0.75 {
		t.Errorf("vector loop branches taken fraction = %.2f, want > 0.75", frac)
	}
}

func TestRNGProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
			if n := r.Intn(17); n < 0 || n >= 17 {
				return false
			}
			if g := r.Geometric(4); g < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricMeanApproximatesTarget(t *testing.T) {
	r := NewRNG(99)
	const mean, n = 8.0, 200000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(mean)
	}
	got := float64(sum) / n
	if got < mean*0.9 || got > mean*1.1 {
		t.Errorf("geometric mean = %.2f, want ~%.1f", got, mean)
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for _, p := range SPEC2000() {
		tr := p.Generate(10000, 21)
		for i, in := range tr.Insts {
			if in.Class.IsMem() && in.Addr >= p.FootprintBytes+64 {
				t.Fatalf("%s inst %d: address %d beyond footprint %d",
					p.Name, i, in.Addr, p.FootprintBytes)
			}
		}
	}
}

func TestGeneratePanicsOnBadInput(t *testing.T) {
	p, _ := ByName("164.gzip")
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	p.Generate(0, 1)
}

// TestInstIs24Bytes pins Inst's packed layout: a field that re-pads the
// struct grows every trace by a third and overruns the trace cache's
// sizing in internal/core.
func TestInstIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Inst{}) = %d, want 24", got)
	}
}

// TestGenerateAllocatesOnlyTheTrace pins Generate's allocation to the
// instruction array plus fixed per-profile state. The slack covers the
// array's page rounding (< 8 KiB) and the branch-site and stream tables
// (< 12 KiB at 192 sites); a load window that reallocates as it slides
// costs about 45 KB more at this length. Allocated bytes are a count,
// not a timing, so the verdict does not depend on the machine.
func TestGenerateAllocatesOnlyTheTrace(t *testing.T) {
	const n, slack = 20000, 24 << 10
	bound := uint64(n)*uint64(unsafe.Sizeof(Inst{})) + slack
	for _, p := range SPEC2000() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		p.Generate(n, 1)
		runtime.ReadMemStats(&m)
		if got := m.TotalAlloc - before; got > bound {
			t.Errorf("%s: Generate(%d) allocated %d B, want <= %d (n x Sizeof(Inst) + %d)", p.Name, n, got, bound, slack)
		}
	}
}

// TestSuiteCopiesAreOwned pins that the slices SPEC2000 and ByGroup hand
// out are the caller's: writing through them must not reach the shared
// suite a later lookup reads.
func TestSuiteCopiesAreOwned(t *testing.T) {
	want, _ := ByName("176.gcc")
	all := SPEC2000()
	for i := range all {
		all[i].Name = "clobbered"
		all[i].DepDistMean = -1
	}
	ints := ByGroup(Integer)
	ints[2].LoopTrip = -1
	got, ok := ByName("176.gcc")
	if !ok || got != want {
		t.Fatalf("ByName after mutating returned copies = %+v, %v; want %+v", got, ok, want)
	}
	if fresh := SPEC2000(); fresh[2] != want {
		t.Errorf("SPEC2000()[2] after mutating an earlier copy = %+v, want %+v", fresh[2], want)
	}
}

func TestByNameSpellings(t *testing.T) {
	for _, name := range []string{"176.gcc", "gcc", "GCC", " 176.GCC\t", "Gcc"} {
		if p, ok := ByName(name); !ok || p.Name != "176.gcc" {
			t.Errorf("ByName(%q) = %q, %v; want 176.gcc", name, p.Name, ok)
		}
	}
	// Case folds as strings.ToLower does, so the Kelvin sign lowers to k.
	if p, ok := ByName("PERLBM\u212A"); !ok || p.Name != "253.perlbmk" {
		t.Errorf("ByName(PERLBM<Kelvin sign>) = %q, %v; want 253.perlbmk", p.Name, ok)
	}
	for _, name := range []string{"", "176", "176.", "999.gcc", "gccx", "176.gcc.gcc", "gçc"} {
		if p, ok := ByName(name); ok {
			t.Errorf("ByName(%q) resolved to %q; want no match", name, p.Name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ByName(" Swim ") }); n != 0 {
		t.Errorf("ByName allocates %v times per call, want 0", n)
	}
}
