package obs

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add("x", 1)
	r.Study("s")() // closer of a nil recorder's study must also be callable
	r.TaskStart(0, 0, time.Millisecond)
	r.TaskDone(0, 0, time.Millisecond)
	snap := r.Snapshot()
	if snap.Counters == nil || snap.WorkerTasks == nil {
		t.Error("nil recorder snapshot must have non-nil maps")
	}
	if snap.Tasks.Count != 0 || len(snap.Studies) != 0 {
		t.Errorf("nil recorder snapshot not empty: %+v", snap)
	}
}

func TestCounters(t *testing.T) {
	r := New(nil)
	r.Add("hits", 2)
	r.Add("hits", 3)
	r.Add("misses", 1)
	snap := r.Snapshot()
	if snap.Counters["hits"] != 5 || snap.Counters["misses"] != 1 {
		t.Errorf("counters = %v", snap.Counters)
	}
}

func TestTaskAttributionToInnermostStudy(t *testing.T) {
	r := New(nil)
	endOuter := r.Study("outer")
	r.TaskDone(0, 0, 10*time.Millisecond) // attributes to outer
	endInner := r.Study("inner")
	r.TaskDone(1, 1, 20*time.Millisecond) // attributes to inner
	r.TaskDone(1, 2, 30*time.Millisecond)
	endInner()
	r.TaskDone(0, 3, 40*time.Millisecond) // back to outer
	endOuter()

	snap := r.Snapshot()
	if len(snap.Studies) != 2 {
		t.Fatalf("studies = %d, want 2", len(snap.Studies))
	}
	byName := map[string]StudyStats{}
	for _, s := range snap.Studies {
		byName[s.Name] = s
	}
	if got := byName["outer"].Tasks.Count; got != 2 {
		t.Errorf("outer tasks = %d, want 2", got)
	}
	if got := byName["inner"].Tasks.Count; got != 2 {
		t.Errorf("inner tasks = %d, want 2", got)
	}
	if snap.Tasks.Count != 4 {
		t.Errorf("global tasks = %d, want 4", snap.Tasks.Count)
	}
	if snap.WorkerTasks["0"] != 2 || snap.WorkerTasks["1"] != 2 {
		t.Errorf("worker tasks = %v", snap.WorkerTasks)
	}
}

func TestDurationStats(t *testing.T) {
	r := New(nil)
	for i, d := range []time.Duration{
		30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
	} {
		r.TaskStart(0, i, time.Duration(i)*time.Millisecond)
		r.TaskDone(0, i, d)
	}
	snap := r.Snapshot()
	if snap.Tasks.Count != 3 || snap.Tasks.MinMS != 10 || snap.Tasks.P50MS != 20 ||
		snap.Tasks.MaxMS != 30 || math.Abs(snap.Tasks.TotalMS-60) > 1e-9 {
		t.Errorf("task stats = %+v", snap.Tasks)
	}
	if snap.QueueWait.Count != 3 || snap.QueueWait.MinMS != 0 || snap.QueueWait.MaxMS != 2 {
		t.Errorf("queue wait = %+v", snap.QueueWait)
	}
}

// TestTaskSummaryBounded pins the Recorder's fixed footprint: 200 000
// task starts and completions inside an open study allocate no more than
// the three summaries' rings, however many tasks run. Count, min, max and
// total stay exact; the median is that of the latest 1024 tasks.
func TestTaskSummaryBounded(t *testing.T) {
	const n = 200_000
	r := New(nil)
	end := r.Study("grid")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.TaskStart(0, i, time.Microsecond)
		r.TaskDone(0, i, time.Duration(i)*time.Microsecond)
	}
	runtime.ReadMemStats(&after)
	end()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d task starts and completions allocated %d B", n, got)
	if got > 128<<10 {
		t.Errorf("%d tasks allocated %d B, want <= 128 KiB whatever the task count", n, got)
	}

	snap := r.Snapshot()
	want := DurationStats{
		Count:   n,
		MinMS:   0,
		P50MS:   float64(n-recentSamples/2) / 1000, // median of the latest 1024
		MaxMS:   float64(n-1) / 1000,
		TotalMS: float64(n) * float64(n-1) / 2 / 1000,
	}
	if snap.Tasks != want || snap.Studies[0].Tasks != want {
		t.Errorf("task stats = %+v (study %+v), want %+v", snap.Tasks, snap.Studies[0].Tasks, want)
	}
	if snap.QueueWait.Count != n || snap.QueueWait.P50MS != 0.001 {
		t.Errorf("queue wait = %+v", snap.QueueWait)
	}
}

func TestStudyDoubleCloseKeepsFirstMeasurement(t *testing.T) {
	r := New(nil)
	end := r.Study("s")
	end()
	wall := r.Snapshot().Studies[0].WallMS
	time.Sleep(5 * time.Millisecond)
	end() // must not restate the wall time or touch the open stack
	if got := r.Snapshot().Studies[0].WallMS; got != wall {
		t.Errorf("wall changed on double close: %v -> %v", wall, got)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	// Exercised under -race in CI: hooks fire from many goroutines while
	// spans open and close and snapshots are taken.
	r := New(nil)
	end := r.Study("grid")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.TaskStart(w, i, time.Microsecond)
				r.TaskDone(w, i, time.Microsecond)
				r.Add("n", 1)
			}
		}(w)
	}
	_ = r.Snapshot() // concurrent snapshot must be safe
	wg.Wait()
	end()
	snap := r.Snapshot()
	if snap.Tasks.Count != 800 || snap.Counters["n"] != 800 {
		t.Errorf("tasks=%d n=%d, want 800/800", snap.Tasks.Count, snap.Counters["n"])
	}
}

func TestLevelMapping(t *testing.T) {
	if !(Level(true, false) < Level(false, false)) {
		t.Error("-v must show more than the default")
	}
	if !(Level(false, true) > Level(false, false)) {
		t.Error("-quiet must show less than the default")
	}
}

func TestCounterAccessor(t *testing.T) {
	r := New(nil)
	r.Add("hits", 2)
	r.Add("hits", 3)
	if got := r.Counter("hits"); got != 5 {
		t.Errorf("Counter(hits) = %d, want 5", got)
	}
	if got := r.Counter("never-touched"); got != 0 {
		t.Errorf("Counter of an untouched name = %d, want 0", got)
	}
	var nilRec *Recorder
	if got := nilRec.Counter("hits"); got != 0 {
		t.Errorf("nil recorder Counter = %d, want 0", got)
	}
}
