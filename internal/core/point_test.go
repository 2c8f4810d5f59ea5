package core

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/trace"
)

func TestNormalizeIdempotent(t *testing.T) {
	cases := []PointOptions{
		{},
		{Benchmark: "gcc", Useful: 8},
		{Machine: "Alpha21264", Benchmark: "176.GCC", Useful: 8},
		{Benchmark: "swim", Useful: 6, Warmup: -3, OverheadFO4: -2},
		{Benchmark: "mcf", Useful: 4, Window: 32, WindowStages: 4, PreSelect: []int{8, 8, 8}},
		{Machine: "in-order", Benchmark: "gzip", Useful: 10, Instructions: 1000, Seed: 42},
		{Benchmark: "art", Useful: 8, PreSelect: []int{}},
	}
	for i, o := range cases {
		once := o.Normalize()
		twice := once.Normalize()
		if once.Key("v") != twice.Key("v") {
			t.Errorf("case %d: Normalize is not idempotent:\nonce:  %+v\ntwice: %+v", i, once, twice)
		}
	}
}

func TestKeyEqualForSemanticallyEqualOptions(t *testing.T) {
	base := PointOptions{Benchmark: "gcc", Useful: 8}
	equal := []struct {
		name string
		o    PointOptions
	}{
		{"explicit machine alias", PointOptions{Machine: "alpha21264", Benchmark: "gcc", Useful: 8}},
		{"canonical machine", PointOptions{Machine: MachineOutOfOrder, Benchmark: "gcc", Useful: 8}},
		{"full benchmark name", PointOptions{Benchmark: "176.gcc", Useful: 8}},
		{"benchmark case and space", PointOptions{Benchmark: "  GCC ", Useful: 8}},
		{"explicit default instructions", PointOptions{Benchmark: "gcc", Useful: 8, Instructions: 60000}},
		{"explicit default warmup", PointOptions{Benchmark: "gcc", Useful: 8, Warmup: 12000}},
		{"explicit default seed", PointOptions{Benchmark: "gcc", Useful: 8, Seed: 1}},
		{"explicit default overhead", PointOptions{Benchmark: "gcc", Useful: 8, OverheadFO4: fo4.PaperOverhead.Total()}},
		{"explicit single window stage", PointOptions{Benchmark: "gcc", Useful: 8, WindowStages: 1}},
		{"empty preselect slice", PointOptions{Benchmark: "gcc", Useful: 8, PreSelect: []int{}}},
	}
	want := base.Key("v")
	for _, c := range equal {
		if got := c.o.Key("v"); got != want {
			t.Errorf("%s: key differs from the default spelling", c.name)
		}
	}

	// The two warmup sentinels must also collapse: any negative means none.
	a := PointOptions{Benchmark: "gcc", Useful: 8, Warmup: NoWarmup}
	b := PointOptions{Benchmark: "gcc", Useful: 8, Warmup: -7}
	if a.Key("v") != b.Key("v") {
		t.Error("NoWarmup and other negative warmups hash differently")
	}
	if a.Key("v") == want {
		t.Error("NoWarmup hashes like the default warmup")
	}
}

func TestKeyChangesWithEveryMeaningfulField(t *testing.T) {
	base := PointOptions{
		Benchmark: "gcc", Useful: 8, Window: 32, WindowStages: 2,
		PreSelect: []int{8}, Instructions: 10000, Seed: 3,
	}
	variants := []struct {
		name string
		o    PointOptions
	}{
		{"machine", func(o PointOptions) PointOptions { o.Machine = MachineInOrder; return o }(base)},
		{"benchmark", func(o PointOptions) PointOptions { o.Benchmark = "swim"; return o }(base)},
		{"useful", func(o PointOptions) PointOptions { o.Useful = 9; return o }(base)},
		{"overhead", func(o PointOptions) PointOptions { o.OverheadFO4 = 3; return o }(base)},
		{"no overhead", func(o PointOptions) PointOptions { o.OverheadFO4 = NoOverhead; return o }(base)},
		{"window", func(o PointOptions) PointOptions { o.Window = 64; return o }(base)},
		{"stages", func(o PointOptions) PointOptions { o.WindowStages = 4; return o }(base)},
		{"preselect", func(o PointOptions) PointOptions { o.PreSelect = []int{16}; return o }(base)},
		{"naive", func(o PointOptions) PointOptions { o.NaivePipelining = true; return o }(base)},
		{"instructions", func(o PointOptions) PointOptions { o.Instructions = 20000; return o }(base)},
		{"warmup", func(o PointOptions) PointOptions { o.Warmup = 100; return o }(base)},
		{"no warmup", func(o PointOptions) PointOptions { o.Warmup = NoWarmup; return o }(base)},
		{"seed", func(o PointOptions) PointOptions { o.Seed = 4; return o }(base)},
	}
	baseKey := base.Key("v")
	seen := map[string]string{baseKey: "base"}
	for _, v := range variants {
		k := v.o.Key("v")
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collides with %s", v.name, prev)
		}
		seen[k] = v.name
	}
	if base.Key("v2") == baseKey {
		t.Error("code version does not alter the key")
	}
}

func TestValidateRejectsBadPoints(t *testing.T) {
	bad := []struct {
		name string
		o    PointOptions
	}{
		{"unknown machine", PointOptions{Machine: "vax", Benchmark: "gcc", Useful: 8}},
		{"unknown benchmark", PointOptions{Benchmark: "doom", Useful: 8}},
		{"zero useful", PointOptions{Benchmark: "gcc"}},
		{"huge useful", PointOptions{Benchmark: "gcc", Useful: 100}},
		{"warmup eats everything", PointOptions{Benchmark: "gcc", Useful: 8, Instructions: 100, Warmup: 100}},
		{"stages without window", PointOptions{Benchmark: "gcc", Useful: 8, WindowStages: 2}},
		{"too many stages", PointOptions{Benchmark: "gcc", Useful: 8, Window: 32, WindowStages: 64}},
		{"huge window", PointOptions{Benchmark: "gcc", Useful: 8, Window: 4096}},
		{"preselect too long", PointOptions{Benchmark: "gcc", Useful: 8, Window: 32, WindowStages: 2, PreSelect: []int{4, 4}}},
		{"preselect nonpositive", PointOptions{Benchmark: "gcc", Useful: 8, Window: 32, WindowStages: 3, PreSelect: []int{4, 0}}},
	}
	for _, c := range bad {
		if _, err := c.o.Resolve("v"); err == nil {
			t.Errorf("%s: Resolve accepted %+v", c.name, c.o)
		}
	}
	good := PointOptions{Benchmark: "gcc", Useful: 8}
	p, err := good.Resolve("v")
	if err != nil {
		t.Fatalf("Resolve rejected the default point: %v", err)
	}
	if p.Options().Key("v") != p.Key() || p.Options().Benchmark != "176.gcc" {
		t.Errorf("resolved point %+v is not the normalized default point", p.Options())
	}
}

// TestSimulatePointMatchesDepthSweep pins the serving layer's entry point
// to the study path: a single point must reproduce exactly the per-bench
// result DepthSweep computes for the same configuration.
func TestSimulatePointMatchesDepthSweep(t *testing.T) {
	prof, ok := ProfileByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	sweep := DepthSweep(SweepConfig{
		Machine:      config.Alpha21264(),
		Overhead:     fo4.PaperOverhead,
		UsefulGrid:   []float64{8},
		Benchmarks:   []trace.Profile{prof},
		Instructions: 5000,
		Workers:      1,
	})
	want := sweep.Points[0].PerBench[0]

	got, err := SimulatePoint(PointOptions{Benchmark: "gcc", Useful: 8, Instructions: 5000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.IPC != want.IPC || got.BIPS != want.BIPS || got.Stats != want.Stats {
		t.Errorf("SimulatePoint diverges from DepthSweep:\npoint: IPC %v BIPS %v\nsweep: IPC %v BIPS %v",
			got.IPC, got.BIPS, want.IPC, want.BIPS)
	}
}

// FuzzCacheKey drives Key and Resolve with arbitrary field values. Keys
// are deterministic under re-normalization (hashing the normalized form
// must be a fixed point) and well-formed (64 hex chars). Resolve
// succeeds exactly when the normalized options validate, and the Point
// it returns carries the same key and clock as the options it came from.
func FuzzCacheKey(f *testing.F) {
	f.Add("", "gcc", 8.0, 0.0, 0, 0, false, 0, 0, uint64(0))
	f.Add("ooo", "176.gcc", 8.0, 1.8, 32, 2, false, 60000, 12000, uint64(1))
	f.Add("inorder", "swim", 2.5, -1.0, 64, 4, true, 1000, -1, uint64(99))
	f.Add("Alpha21264", "  MCF ", 16.0, 3.6, 0, 1, false, 500, 0, uint64(7))
	f.Fuzz(func(t *testing.T, machine, bench string, useful, overhead float64,
		window, stages int, naive bool, instructions, warmup int, seed uint64) {
		o := PointOptions{
			Machine: machine, Benchmark: bench, Useful: useful,
			OverheadFO4: overhead, Window: window, WindowStages: stages,
			NaivePipelining: naive, Instructions: instructions,
			Warmup: warmup, Seed: seed,
		}
		k1 := o.Key("v")
		if len(k1) != 64 {
			t.Fatalf("key %q is not a sha256 hex digest", k1)
		}
		n := o.Normalize()
		if k2 := n.Key("v"); k2 != k1 {
			t.Fatalf("normalized form hashes differently:\nraw:        %+v -> %s\nnormalized: %+v -> %s", o, k1, n, k2)
		}
		if nn := n.Normalize(); nn.Key("v") != k1 {
			t.Fatal("Normalize is not idempotent under Key")
		}
		p, err := o.Resolve("v")
		_, known := ProfileByName(n.Benchmark)
		if verr := n.validate(known); (err == nil) != (verr == nil) {
			t.Fatalf("Resolve error %v but the normalized options validate to %v: %+v", err, verr, n)
		}
		if err != nil {
			return
		}
		if p.Key() != k1 {
			t.Fatalf("Point.Key %s differs from Key %s for %+v", p.Key(), k1, o)
		}
		// Printed, so that a NaN field (which validate admits) compares
		// equal to itself.
		if fmt.Sprint(p.Clock()) != fmt.Sprint(o.Clock()) {
			t.Fatalf("Point.Clock %+v differs from Clock %+v for %+v", p.Clock(), o.Clock(), o)
		}
	})
}

// TestPointLookupAllocations pins the admission path's allocation
// budget: resolving a benchmark reads the shared suite without copying
// it, and Key's only allocation is the returned string.
func TestPointLookupAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ProfileByName("176.gcc") }); n != 0 {
		t.Errorf("ProfileByName allocates %v times per call, want 0", n)
	}
	o := PointOptions{
		Machine: "inorder", Benchmark: "mcf", Useful: 6.5, OverheadFO4: NoOverhead,
		Window: 32, WindowStages: 3, PreSelect: []int{8, 16}, NaivePipelining: true,
		Instructions: 20000, Warmup: NoWarmup, Seed: 1 << 63,
	}
	if n := testing.AllocsPerRun(100, func() { o.Key("v") }); n != 1 {
		t.Errorf("Key allocates %v times per call, want 1", n)
	}
}
