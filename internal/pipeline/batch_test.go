package pipeline

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/trace"
)

// batchGrid builds a deliberately heterogeneous lane set: a depth sweep,
// the Section 5 window variants, an in-order lane, and one lane with a
// doubled L1 (a second, single-lane geometry partition), so the property
// test covers a shared prewarm template, the RunWith fallback, structural
// divergence and the partition bookkeeping in one grid.
func batchGrid() []Params {
	var ps []Params
	for _, useful := range []float64{2, 4, 6, 8, 12, 16} {
		ps = append(ps, paramsAt(useful))
	}
	ws := paramsAt(6)
	ws.Machine.UnifiedWindow = 32
	ws.WindowStages = 4
	ps = append(ps, ws)

	pre := ws
	pre.PreSelect = []int{5, 2, 1}
	ps = append(ps, pre)

	naive := ws
	naive.NaivePipelining = true
	ps = append(ps, naive)

	ino := paramsAt(8)
	ino.Machine.InOrder = true
	ps = append(ps, ino)

	bigL1 := paramsAt(6)
	bigL1.Machine.Structures.DL1.CapacityBytes *= 2
	ps = append(ps, bigL1)
	return ps
}

// TestRunBatchMatchesRunWith is the batch equivalence property: for
// every lane of a mixed grid, RunBatch(params, tr, ...)[i] equals
// RunWith(params[i], tr, ...) field for field, with no field masked — N
// batched lanes are indistinguishable from N independent runs. CI runs
// the package under -race, so the shared decode and template state also
// get the data-race treatment here.
func TestRunBatchMatchesRunWith(t *testing.T) {
	params := batchGrid()
	for _, bench := range []string{"176.gcc", "171.swim"} {
		tr := getTrace(t, bench, 20000)

		bs := NewBatchScratch()
		got := RunBatch(params, tr, bs.Lanes(len(params)))

		s := NewScratch()
		for i, p := range params {
			want := RunWith(p, tr, s)
			if got[i] != want {
				t.Errorf("%s lane %d: batched stats diverge:\n got %+v\nwant %+v", bench, i, got[i], want)
			}
		}

		// Second pass on the same BatchScratch: reuse must not leak state.
		again := RunBatch(params, tr, bs.Lanes(len(params)))
		for i := range got {
			if got[i] != again[i] {
				t.Errorf("%s lane %d: batch reuse diverges", bench, i)
			}
		}
	}
}

// TestRunBatchAccounting pins the degenerate batch: a single-lane batch,
// on a BatchScratch a wider batch used before, is indistinguishable from
// an unbatched run.
func TestRunBatchAccounting(t *testing.T) {
	tr := getTrace(t, "176.gcc", 20000)
	params := []Params{paramsAt(4), paramsAt(6), paramsAt(8)}
	bs := NewBatchScratch()
	RunBatch(params, tr, bs.Lanes(len(params)))
	single := RunBatch(params[:1], tr, bs.Lanes(1))
	if want := RunWith(params[0], tr, NewScratch()); single[0] != want {
		t.Errorf("single-lane batch diverges from RunWith:\n got %+v\nwant %+v", single[0], want)
	}
}

// TestRunBatchSteadyStateAllocs pins the batch dispatch's allocation
// economy: once a BatchScratch has served one batch, later batches of
// the same shape allocate only the result slice, independent of lane
// count.
func TestRunBatchSteadyStateAllocs(t *testing.T) {
	tr := getTrace(t, "176.gcc", 20000)
	params := make([]Params, 0, 15)
	for u := 2; u <= 16; u++ {
		params = append(params, paramsAt(float64(u)))
	}
	bs := NewBatchScratch()
	RunBatch(params, tr, bs.Lanes(len(params))) // warm the scratch set

	allocs := testing.AllocsPerRun(3, func() {
		RunBatch(params, tr, bs.Lanes(len(params)))
	})
	// One allocation for the out []Stats; anything more means per-lane
	// state stopped being reused.
	if allocs > 2 {
		t.Errorf("steady-state RunBatch allocates %.1f objects per 15-lane batch, want <= 2", allocs)
	}
}

// allocBytes returns the bytes the heap allocated while fn ran, from
// runtime.MemStats.TotalAlloc. Callers are non-parallel tests, so the
// count is fn's own allocation plus runtime noise.
func allocBytes(fn func()) uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	fn()
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - before
}

// TestRunBatchBytesIndependentOfLaneCount pins lane aliasing: every slot
// of a BatchScratch is the same Scratch, so a fresh BatchScratch's first
// 15-lane batch allocates one lane hierarchy, one arena set and the
// partition's prewarm template — about what a 1-lane batch allocates,
// not 15 times it — and a second batch on it allocates only its result.
func TestRunBatchBytesIndependentOfLaneCount(t *testing.T) {
	tr := getTrace(t, "176.gcc", 20000)
	params := make([]Params, 0, 15)
	for u := 2; u <= 16; u++ {
		params = append(params, paramsAt(float64(u)))
	}
	RunBatch(params, tr, NewBatchScratch().Lanes(len(params))) // settle one-time runtime allocation

	one := allocBytes(func() { RunBatch(params[:1], tr, NewBatchScratch().Lanes(1)) })
	bs := NewBatchScratch()
	fifteen := allocBytes(func() { RunBatch(params, tr, bs.Lanes(len(params))) })
	again := allocBytes(func() { RunBatch(params, tr, bs.Lanes(len(params))) })
	t.Logf("1 lane fresh: %d B; 15 lanes fresh: %d B; 15 lanes reused: %d B", one, fifteen, again)

	// The template is one more hierarchy, so 15 lanes may cost up to
	// twice one lane; per-lane state would cost ~15x.
	if fifteen > 2*one {
		t.Errorf("fresh 15-lane RunBatch allocates %d B, more than twice the %d B of a 1-lane batch", fifteen, one)
	}
	if again > 16<<10 {
		t.Errorf("steady-state 15-lane RunBatch allocates %d B, want <= 16 KiB (the result slice)", again)
	}
}

// TestRunWithBytesPerInstruction pins what a Scratch keeps per
// instruction of its trace: 28 B of timing arenas, the decode's flags
// byte and the consumer index, about 41 B in all. Two fresh RunWith calls
// on traces of one profile at 40 000 and 20 000 instructions allocate the
// same lane hierarchy, so their difference over 20 000 is the per-
// instruction cost. A decode that copied the trace's operands, classes or
// addresses again would cost 17 B more.
func TestRunWithBytesPerInstruction(t *testing.T) {
	prof, _ := trace.ByName("176.gcc")
	short, long := prof.Generate(20000, 1), prof.Generate(40000, 1)
	p := paramsAt(6)
	RunWith(p, short, nil) // settle one-time runtime allocation

	lo := allocBytes(func() { RunWith(p, short, nil) })
	hi := allocBytes(func() { RunWith(p, long, nil) })
	perInst := (float64(hi) - float64(lo)) / 20000
	t.Logf("fresh RunWith: %d B at 20 000 instructions, %d B at 40 000: %.1f B per instruction", lo, hi, perInst)
	if perInst > 44 {
		t.Errorf("a fresh RunWith allocates %.1f B per instruction, want <= 44", perInst)
	}
}

// TestRunsDoNotRetainTheTrace pins that the derived per-trace state —
// decode, predictor walk, consumer index — dies with its trace: after
// RunWith and a mixed in-order/out-of-order RunBatch on a trace, with
// both scratches still held for reuse, dropping the trace lets the
// collector free its instructions.
func TestRunsDoNotRetainTheTrace(t *testing.T) {
	s, bs := NewScratch(), NewBatchScratch()
	freed := make(chan struct{})
	func() {
		prof, _ := trace.ByName("176.gcc")
		tr := prof.Generate(10000, 4242)
		runtime.SetFinalizer(&tr.Insts[0], func(*trace.Inst) { close(freed) })
		m := config.InOrder7Stage()
		inorder := Params{Machine: m, Timing: m.Resolve(fo4.Clock{Useful: 8, Overhead: fo4.PaperOverhead})}
		RunWith(paramsAt(6), tr, s)
		RunBatch([]Params{paramsAt(6), inorder, paramsAt(8)}, tr, bs.Lanes(3))
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(s)
			runtime.KeepAlive(bs)
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("trace still reachable 5 s after its last run: simulation state retains it")
		}
	}
}

// benchBatch measures one RunBatch call per iteration at the given lane
// count. The 1-lane case prices the fallback against BenchmarkRunOutOfOrder;
// the 15-lane case is the depth-sweep shape (useful 2..16) whose
// per-benchmark sharing the batched engine dispatch rides on.
func benchBatch(b *testing.B, bench string, lanes int) {
	tr := getTrace(b, bench, 40000)
	params := make([]Params, 0, lanes)
	for i := 0; i < lanes; i++ {
		params = append(params, paramsAt(float64(2+i)))
	}
	bs := NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunBatch(params, tr, bs.Lanes(len(params)))
	}
}

func BenchmarkRunBatch(b *testing.B) {
	for _, bench := range []string{"176.gcc", "171.swim"} {
		for _, lanes := range []int{1, 15} {
			b.Run(bench+"/lanes="+strconv.Itoa(lanes), func(b *testing.B) {
				benchBatch(b, bench, lanes)
			})
		}
	}
}
