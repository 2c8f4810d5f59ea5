package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/trace"
)

// smallConfig keeps engine tests fast: few benchmarks, a short grid.
func smallConfig() SweepConfig {
	c := testConfig()
	c.Instructions = 8000
	c.UsefulGrid = []float64{4, 6, 8}
	c.Benchmarks = []trace.Profile{
		mustProfile("176.gcc"), mustProfile("171.swim"), mustProfile("177.mesa"),
	}
	return c
}

func mustProfile(name string) trace.Profile {
	p, ok := trace.ByName(name)
	if !ok {
		panic("no profile " + name)
	}
	return p
}

// TestDepthSweepWorkerCountInvariant is the determinism table test: the
// serial path and the parallel path must render bit-for-bit identical
// results, because results are slotted by index and aggregated serially.
func TestDepthSweepWorkerCountInvariant(t *testing.T) {
	base := smallConfig()
	var want string
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := base
			cfg.Workers = workers
			got := fmt.Sprintf("%#v", DepthSweep(cfg).Points)
			if workers == 1 {
				want = got
				return
			}
			if got != want {
				t.Errorf("Workers=%d sweep differs from Workers=1", workers)
			}
		})
	}
}

func TestWarmupSentinel(t *testing.T) {
	// The zero value keeps its historical meaning: default 20%.
	c := SweepConfig{Instructions: 1000}
	c.fill()
	if c.Warmup != 200 {
		t.Errorf("Warmup 0 resolved to %d, want the 20%% default (200)", c.Warmup)
	}
	// NoWarmup requests explicitly zero warmup, which the zero value
	// could never express.
	c = SweepConfig{Instructions: 1000, Warmup: NoWarmup}
	c.fill()
	if c.Warmup != 0 {
		t.Errorf("Warmup NoWarmup resolved to %d, want 0", c.Warmup)
	}
	// Explicit positive values pass through untouched.
	c = SweepConfig{Instructions: 1000, Warmup: 123}
	c.fill()
	if c.Warmup != 123 {
		t.Errorf("Warmup 123 resolved to %d, want 123", c.Warmup)
	}
}

func TestNoWarmupChangesResults(t *testing.T) {
	cfg := smallConfig()
	withWarmup := DepthSweep(cfg)
	cfg.Warmup = NoWarmup
	noWarmup := DepthSweep(cfg)
	if withWarmup.Points[0].AllBIPS == noWarmup.Points[0].AllBIPS {
		t.Error("NoWarmup produced the same aggregate as the 20% default; sentinel not honored")
	}
}

// TestTraceCacheReuse pins the trace cache contract: the same
// (profile, instructions, seed) always yields the same *trace.Trace
// pointer, and different seeds yield different instances.
func TestTraceCacheReuse(t *testing.T) {
	cfg := smallConfig()
	cfg.fill()
	a := cfg.traces()
	b := cfg.traces()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("trace %d regenerated instead of cached", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	c := cfg2.traces()
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("trace %d shared across different seeds", i)
		}
	}
}

// TestTraceCacheRacersShareOnePointer pins the miss semantics under
// concurrency: callers racing on one uncached key may each generate it,
// but all get back the one canonical trace.
func TestTraceCacheRacersShareOnePointer(t *testing.T) {
	const racers = 8
	prof := mustProfile("164.gzip")
	got := make([]*trace.Trace, racers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = cachedTrace(prof, 3001, 0x7ace, nil)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("racer %d got trace %p, racer 0 got %p: no canonical pointer", i, got[i], got[0])
		}
	}
}

// cachedBytes reads the trace cache's byte accounting.
func cachedBytes() int64 {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	return traceCache.bytes
}

// TestTraceCacheBoundedByBytes pins the trace cache's budget: distinct
// seeds adding up to more than twice traceCacheBytes, pushed through
// SimulatePoint, never leave more than the budget accounted, every
// trace past the budget's worth counts an eviction, and the first trace,
// evicted long before the end, is freed.
func TestTraceCacheBoundedByBytes(t *testing.T) {
	const n, base = 20000, 0xb0b0000
	perTrace := n * int(unsafe.Sizeof(trace.Inst{}))
	seeds := 2*traceCacheBytes/perTrace + 1
	rec := obs.New(nil)
	freed := make(chan struct{})
	for i := 0; i < seeds; i++ {
		o := PointOptions{Benchmark: "176.gcc", Useful: 6, Instructions: n, Seed: base + uint64(i)}
		if _, err := SimulatePoint(o, rec); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			tr := cachedTrace(mustProfile("176.gcc"), n, base, nil)
			runtime.SetFinalizer(&tr.Insts[0], func(*trace.Inst) { close(freed) })
		}
		if b := cachedBytes(); b > traceCacheBytes {
			t.Fatalf("after %d distinct traces the cache accounts %d B, over its %d B budget", i+1, b, traceCacheBytes)
		}
	}
	if got, want := rec.Counter("trace_cache_evictions"), int64(seeds-traceCacheBytes/perTrace); got < want {
		t.Errorf("trace_cache_evictions = %d after %d distinct traces, want >= %d", got, seeds, want)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("first trace still reachable 5 s after the cache cycled past it: an evicted trace is retained")
		}
	}
}

// TestTraceCacheHoldsFullSuite pins the budget's sizing rule: after the
// cache is filled with other traces, the largest suite in-repo callers
// re-read (experiments.Full: 18 benchmarks × 120 000 instructions) is
// generated once and then read back without a miss.
func TestTraceCacheHoldsFullSuite(t *testing.T) {
	const n = 20000
	for i := 0; i <= traceCacheBytes/(n*int(unsafe.Sizeof(trace.Inst{}))); i++ {
		cachedTrace(mustProfile("181.mcf"), n, 0xf111000+uint64(i), nil)
	}
	cfg := testConfig()
	cfg.Benchmarks = trace.SPEC2000()
	cfg.Instructions = 120000
	cfg.Seed = 0xf1115eed
	cfg.fill()
	cfg.traces()

	cfg.Obs = obs.New(nil)
	cfg.traces()
	hits, misses := cfg.Obs.Counter("trace_cache_hits"), cfg.Obs.Counter("trace_cache_misses")
	if hits != int64(len(cfg.Benchmarks)) || misses != 0 {
		t.Errorf("second read of an 18-benchmark 120 000-instruction suite: %d hits, %d misses; want %d hits, 0 misses",
			hits, misses, len(cfg.Benchmarks))
	}
}

func TestDepthSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts
	cfg := smallConfig()
	cfg.Context = ctx
	res := DepthSweep(cfg)
	if err := ctx.Err(); err == nil {
		t.Fatal("context unexpectedly alive")
	}
	// A cancelled sweep returns promptly with empty aggregates rather
	// than panicking inside the harmonic means.
	for _, p := range res.Points {
		if p.AllBIPS != 0 || len(p.PerBench) != 0 {
			t.Errorf("cancelled sweep produced aggregates: %+v", p)
		}
	}
}
