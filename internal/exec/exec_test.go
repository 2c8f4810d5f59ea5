package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func items(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestMapSlotsResultsByIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(Pool{Workers: workers}, items(100), func(i, v int) int {
			return i * v
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapSerialMatchesParallel(t *testing.T) {
	fn := func(i, v int) uint64 {
		// A little deterministic arithmetic per job.
		x := uint64(v)*2654435761 + 1
		for k := 0; k < 100; k++ {
			x ^= x >> 13
			x *= 0x9E3779B97F4A7C15
		}
		return x
	}
	serial, err := Map(Pool{Workers: 1}, items(257), fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(Pool{Workers: 8}, items(257), fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(Pool{}, nil, func(i, v int) int { return v })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, workers := range []int{1, 4} {
		_, err := Map(Pool{Workers: workers, Ctx: ctx}, items(50), func(i, v int) int {
			ran.Add(1)
			return v
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d jobs ran on a cancelled context", n)
	}
}

func TestMapCancellationStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	const n = 10000
	_, err := Map(Pool{Workers: 4, Ctx: ctx}, items(n), func(i, v int) int {
		if ran.Add(1) == 10 {
			cancel()
		}
		return v
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d jobs ran despite cancellation", got)
	}
}

func TestPoolSize(t *testing.T) {
	if got := (Pool{Workers: 8}).size(3); got != 3 {
		t.Errorf("workers capped at items: got %d, want 3", got)
	}
	if got := (Pool{Workers: 2}).size(100); got != 2 {
		t.Errorf("explicit workers: got %d, want 2", got)
	}
	if got := (Pool{}).size(100); got < 1 {
		t.Errorf("default workers: got %d, want >= 1", got)
	}
}

func TestHooksObserveEveryTask(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		started := map[int]int{}
		done := map[int]int{}
		maxWorker := 0
		p := Pool{
			Workers: workers,
			OnTaskStart: func(w, i int, queueWait time.Duration) {
				mu.Lock()
				started[i]++
				if w > maxWorker {
					maxWorker = w
				}
				if queueWait < 0 {
					t.Errorf("negative queue wait %v", queueWait)
				}
				mu.Unlock()
			},
			OnTaskDone: func(w, i int, d time.Duration) {
				mu.Lock()
				done[i]++
				if d < 0 {
					t.Errorf("negative duration %v", d)
				}
				mu.Unlock()
			},
		}
		got, err := Map(p, items(57), func(i, v int) int { return v * 2 })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*2 {
				t.Fatalf("workers=%d: hooks disturbed results: slot %d = %d", workers, i, v)
			}
		}
		if len(started) != 57 || len(done) != 57 {
			t.Fatalf("workers=%d: started %d / done %d indexes, want 57", workers, len(started), len(done))
		}
		for i := 0; i < 57; i++ {
			if started[i] != 1 || done[i] != 1 {
				t.Fatalf("workers=%d: index %d started %d / done %d times", workers, i, started[i], done[i])
			}
		}
		if maxWorker >= (p.size(57)) {
			t.Errorf("workers=%d: worker id %d out of range", workers, maxWorker)
		}
		if workers == 1 && maxWorker != 0 {
			t.Errorf("serial path must report worker 0, saw %d", maxWorker)
		}
	}
}

func TestHooksDoNotChangeOutput(t *testing.T) {
	fn := func(i, v int) uint64 {
		x := uint64(v)*2654435761 + 1
		for k := 0; k < 50; k++ {
			x ^= x >> 13
			x *= 0x9E3779B97F4A7C15
		}
		return x
	}
	plain, err := Map(Pool{Workers: 4}, items(123), fn)
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := Map(Pool{
		Workers:     4,
		OnTaskStart: func(w, i int, q time.Duration) {},
		OnTaskDone:  func(w, i int, d time.Duration) {},
	}, items(123), fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("slot %d: plain %d != hooked %d", i, plain[i], hooked[i])
		}
	}
}

func TestSkipDropsJobsAndKeepsSlots(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var started, done atomic.Int64
		p := Pool{
			Workers:     workers,
			Skip:        func(i int) bool { return i%3 == 0 },
			OnTaskStart: func(w, i int, q time.Duration) { started.Add(1) },
			OnTaskDone:  func(w, i int, d time.Duration) { done.Add(1) },
		}
		got, err := Map(p, items(30), func(i, v int) int { return v + 1 })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ran := 0
		for i, v := range got {
			if i%3 == 0 {
				if v != 0 {
					t.Fatalf("workers=%d: skipped slot %d = %d, want zero value", workers, i, v)
				}
				continue
			}
			ran++
			if v != i+1 {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i+1)
			}
		}
		if started.Load() != int64(ran) || done.Load() != int64(ran) {
			t.Fatalf("workers=%d: hooks fired %d/%d times for %d run jobs (skips must not fire hooks)",
				workers, started.Load(), done.Load(), ran)
		}
	}
}

func TestSkipNilRunsEverything(t *testing.T) {
	got, err := Map(Pool{Workers: 2}, items(20), func(i, v int) int { return v + 1 })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("slot %d = %d, want %d", i, v, i+1)
		}
	}
}

func TestSkipConsultedOncePerJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls [50]atomic.Int64
		p := Pool{
			Workers: workers,
			Skip: func(i int) bool {
				calls[i].Add(1)
				return false
			},
		}
		if _, err := Map(p, items(50), func(i, v int) int { return v }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("workers=%d: Skip(%d) consulted %d times, want 1", workers, i, n)
			}
		}
	}
}
