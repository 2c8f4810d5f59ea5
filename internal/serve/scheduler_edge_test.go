package serve

// Shutdown- and disconnect-edge tests for the scheduler, white-box on
// purpose: the hard paths (a waiter vanishing in the window between
// release's prune and the dispatcher's claim, a batch skipping an
// abandoned group, a simulation error surfacing after admission) live in
// races the HTTP layer can only hit probabilistically. Here the
// dispatcher goroutine is left unstarted, so each test walks the queue
// machinery by hand and the interleaving is exact.

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

const edgeVersion = "edge-v"

// newEdgeScheduler builds a scheduler with no dispatcher goroutine: the
// test is the dispatcher, calling takeBatch/runBatch itself.
func newEdgeScheduler(queueLimit int) *scheduler {
	return &scheduler{
		rec:         obs.New(nil),
		log:         slog.Default(),
		metrics:     &serverMetrics{},
		workers:     1,
		codeVersion: edgeVersion,
		queueLimit:  queueLimit,
		cache:       store.NewMemory(64, nil),
		inflight:    map[string]*job{},
		wake:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		stopped:     make(chan struct{}),
	}
}

// edgePoints expands a tiny grid into admission-ready points.
func edgePoints(t *testing.T, benches []string, useful []float64) []core.Point {
	t.Helper()
	req := SweepRequest{Useful: useful, Benchmarks: benches, Instructions: 2000, Seed: 99}
	pts, err := req.points(edgeVersion, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// closedWithErr reports whether j.done has closed and with what error.
func closedWithErr(j *job) (bool, error) {
	select {
	case <-j.done:
		return true, j.err
	default:
		return false, nil
	}
}

// TestNewSchedulerNilObservabilityDefaults: the real constructor
// (dispatcher and all) with every observability seam nil must still
// admit, simulate and drain — the nil recorder, logger and metrics all
// default to no-ops. Admit-after-close through the Server is pinned in
// serve_test.go; this is the bare-scheduler variant.
func TestNewSchedulerNilObservabilityDefaults(t *testing.T) {
	s := newScheduler(1, 8, store.NewMemory(8, nil), edgeVersion, nil, nil, nil)
	pts := edgePoints(t, []string{"gcc"}, []float64{6})
	tickets, adm, err := s.admit(pts, "t1")
	if err != nil || adm.misses != 1 {
		t.Fatalf("admit: %v %+v", err, adm)
	}
	<-tickets[0].job.done
	if tickets[0].job.err != nil || tickets[0].job.line == nil {
		t.Fatalf("job finished err=%v line=%q", tickets[0].job.err, tickets[0].job.line)
	}
	s.close()
	if _, _, err := s.admit(pts, "t2"); !errors.Is(err, ErrStopped) {
		t.Fatalf("admit after close = %v, want ErrStopped", err)
	}
}

func TestAdmitQueueFullEnqueuesNothing(t *testing.T) {
	s := newEdgeScheduler(1)
	pts := edgePoints(t, []string{"gcc"}, []float64{6, 8})
	if _, _, err := s.admit(pts, "t1"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("admit past queueLimit = %v, want ErrQueueFull", err)
	}
	if len(s.queue) != 0 || len(s.inflight) != 0 {
		t.Fatalf("rejected admission left state behind: queue %d, inflight %d", len(s.queue), len(s.inflight))
	}
	// A request that fits must still be admitted afterwards.
	pts = edgePoints(t, []string{"gcc"}, []float64{6})
	if _, _, err := s.admit(pts, "t2"); err != nil {
		t.Fatalf("fitting admit after rejection: %v", err)
	}
}

// TestReleasePrunesQueuedJobs is the disconnect-while-queued edge: every
// released point that nobody else wants leaves the queue immediately,
// finalized as cancelled, and is counted dropped.
func TestReleasePrunesQueuedJobs(t *testing.T) {
	s := newEdgeScheduler(8)
	pts := edgePoints(t, []string{"gcc"}, []float64{6, 8})
	tickets, adm, err := s.admit(pts, "t1")
	if err != nil || adm.misses != 2 {
		t.Fatalf("admit: %v %+v", err, adm)
	}
	s.release(tickets)
	if len(s.queue) != 0 || len(s.inflight) != 0 {
		t.Fatalf("release left queue %d, inflight %d", len(s.queue), len(s.inflight))
	}
	for i, tk := range tickets {
		done, jerr := closedWithErr(tk.job)
		if !done || !errors.Is(jerr, errCancelled) {
			t.Fatalf("ticket %d: done=%v err=%v, want cancelled", i, done, jerr)
		}
	}
	if got := s.rec.Counter("points_dropped"); got != 2 {
		t.Fatalf("points_dropped = %d, want 2", got)
	}
}

// TestReleaseKeepsSharedJobs: a queued job survives one requester's
// disconnect as long as another stream still wants it.
func TestReleaseKeepsSharedJobs(t *testing.T) {
	s := newEdgeScheduler(8)
	pts := edgePoints(t, []string{"gcc"}, []float64{6})
	first, adm1, err := s.admit(pts, "t1")
	if err != nil || adm1.misses != 1 {
		t.Fatalf("first admit: %v %+v", err, adm1)
	}
	second, adm2, err := s.admit(pts, "t2")
	if err != nil || adm2.joins != 1 || adm2.hits != 1 {
		t.Fatalf("second admit should join in-flight work: %v %+v", err, adm2)
	}
	if first[0].job != second[0].job {
		t.Fatal("the two requests hold different jobs for one key")
	}

	s.release(first)
	if len(s.queue) != 1 || len(s.inflight) != 1 {
		t.Fatalf("job with a live waiter was pruned: queue %d, inflight %d", len(s.queue), len(s.inflight))
	}
	if done, _ := closedWithErr(second[0].job); done {
		t.Fatal("shared job finalized while a waiter remained")
	}
	s.release(second)
	if len(s.queue) != 0 || len(s.inflight) != 0 {
		t.Fatal("job lingered after its last waiter left")
	}
	if got := s.rec.Counter("points_dropped"); got != 1 {
		t.Fatalf("points_dropped = %d, want 1 (one point, however many requesters)", got)
	}
}

// TestReleaseSkipsResolvedTickets: tickets satisfied from the cache at
// admission carry no job; release must walk past them.
func TestReleaseSkipsResolvedTickets(t *testing.T) {
	s := newEdgeScheduler(8)
	s.cache.Put("warm-key", []byte(`{"key":"warm-key"}`+"\n"))
	pts := edgePoints(t, []string{"gcc"}, []float64{6})
	tickets, _, err := s.admit(pts, "t1")
	if err != nil {
		t.Fatal(err)
	}
	line, ok := s.cache.Get("warm-key")
	if !ok {
		t.Fatal("cache lost the warm line")
	}
	mixed := append([]ticket{{line: line}}, tickets...)
	s.release(mixed) // must not panic on the job-less ticket
	if len(s.queue) != 0 {
		t.Fatalf("queue depth %d after full release", len(s.queue))
	}
}

// TestTakeBatchDropsAbandonedJobs covers the belt-and-braces window:
// a job's last waiter vanishes after release's prune decision but
// before the dispatcher claims the queue. takeBatch must drop it, not
// hand it to the executor.
func TestTakeBatchDropsAbandonedJobs(t *testing.T) {
	s := newEdgeScheduler(8)
	pts := edgePoints(t, []string{"gcc", "swim"}, []float64{6})
	tickets, _, err := s.admit(pts, "t1")
	if err != nil {
		t.Fatal(err)
	}
	// The race window in miniature: one job loses its waiter without a
	// release call touching the queue.
	tickets[0].job.waiters.Add(-1)

	batch := s.takeBatch()
	if len(batch) != 1 || batch[0] != tickets[1].job {
		t.Fatalf("takeBatch claimed %d jobs, want just the live one", len(batch))
	}
	done, jerr := closedWithErr(tickets[0].job)
	if !done || !errors.Is(jerr, errCancelled) {
		t.Fatalf("abandoned job: done=%v err=%v, want cancelled", done, jerr)
	}
	if _, ok := s.inflight[pts[0].Key()]; ok {
		t.Fatal("abandoned job still registered in-flight")
	}
	if got := s.rec.Counter("points_dropped"); got != 1 {
		t.Fatalf("points_dropped = %d, want 1", got)
	}
}

// TestRunBatchDropsJobsAbandonedMidBatch: the executor skips a job whose
// waiters vanished after the batch was claimed; the post-batch sweep
// finalizes it as dropped.
func TestRunBatchDropsJobsAbandonedMidBatch(t *testing.T) {
	// The subtest name predates the removal of the flat dispatch; the
	// grouped dispatch it named is the only one left.
	t.Run("batch=true", func(t *testing.T) {
		s := newEdgeScheduler(8)
		pts := edgePoints(t, []string{"gcc"}, []float64{6})
		tickets, _, err := s.admit(pts, "t1")
		if err != nil {
			t.Fatal(err)
		}
		batch := s.takeBatch()
		if len(batch) != 1 {
			t.Fatalf("batch size %d, want 1", len(batch))
		}
		tickets[0].job.waiters.Add(-1) // client gone while the batch is in hand
		s.runBatch(batch)
		done, jerr := closedWithErr(tickets[0].job)
		if !done || !errors.Is(jerr, errCancelled) {
			t.Fatalf("abandoned mid-batch job: done=%v err=%v, want cancelled", done, jerr)
		}
		if got := s.rec.Counter("points_dropped"); got != 1 {
			t.Fatalf("points_dropped = %d, want 1", got)
		}
		if got := s.rec.Counter("simulations"); got != 0 {
			t.Fatalf("simulations = %d for a batch nobody wanted", got)
		}
		if len(s.queue) != 0 || len(s.inflight) != 0 || s.running != 0 {
			t.Fatalf("post-batch state leaked: queue %d inflight %d running %d",
				len(s.queue), len(s.inflight), s.running)
		}
	})
}

// TestRunGroupedPartitionsByTrace: a mixed batch splits into per-trace
// groups, every live point simulates exactly once, and each grouped line
// is byte-identical to the line built from core.SimulatePoint alone.
func TestRunGroupedPartitionsByTrace(t *testing.T) {
	// gcc×{6,8} share one trace; swim×{6,8} share another.
	pts := edgePoints(t, []string{"gcc", "swim"}, []float64{6, 8})
	if len(pts) != 4 {
		t.Fatalf("grid expanded to %d points, want 4", len(pts))
	}

	s := newEdgeScheduler(8)
	tickets, _, err := s.admit(pts, "t1")
	if err != nil {
		t.Fatal(err)
	}
	s.runBatch(s.takeBatch())
	for i, tk := range tickets {
		done, jerr := closedWithErr(tk.job)
		if !done || jerr != nil {
			t.Fatalf("point %s: done=%v err=%v", pts[i].Key(), done, jerr)
		}
		res, err := core.SimulatePoint(pts[i].Options(), nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(newPointResult(pts[i], res))
		if err != nil {
			t.Fatal(err)
		}
		if got := string(tk.job.line); got != string(want)+"\n" {
			t.Fatalf("grouped line for %s differs from the single-point oracle:\n  grouped: %s\n  oracle:  %s", pts[i].Key(), got, want)
		}
	}
	if got := s.rec.Counter("simulations"); got != int64(len(pts)) {
		t.Fatalf("simulations = %d, want %d", got, len(pts))
	}
}

// TestRunGroupedSkipsAbandonedGroup: when every lane of one trace group
// loses its waiters, the whole group is skipped — zero simulations for
// it — while the other group still runs.
func TestRunGroupedSkipsAbandonedGroup(t *testing.T) {
	pts := edgePoints(t, []string{"gcc", "swim"}, []float64{6, 8})
	s := newEdgeScheduler(8)
	tickets, _, err := s.admit(pts, "t1")
	if err != nil {
		t.Fatal(err)
	}
	batch := s.takeBatch()
	if len(batch) != 4 {
		t.Fatalf("batch size %d, want 4", len(batch))
	}
	var abandoned, kept []*job
	for i, tk := range tickets {
		if pts[i].Options().Benchmark == pts[0].Options().Benchmark {
			tk.job.waiters.Add(-1)
			abandoned = append(abandoned, tk.job)
		} else {
			kept = append(kept, tk.job)
		}
	}
	s.runBatch(batch)
	for _, j := range abandoned {
		if done, jerr := closedWithErr(j); !done || !errors.Is(jerr, errCancelled) {
			t.Fatalf("abandoned group lane: done=%v err=%v, want cancelled", done, jerr)
		}
	}
	for _, j := range kept {
		if done, jerr := closedWithErr(j); !done || jerr != nil || j.line == nil {
			t.Fatalf("live group lane: done=%v err=%v line=%q", done, jerr, j.line)
		}
	}
	if got := s.rec.Counter("simulations"); got != int64(len(kept)) {
		t.Fatalf("simulations = %d, want %d (the abandoned group must not run)", got, len(kept))
	}
}

// TestDispatchBytesPerPointBounded pins sweepd's long-lived lane state:
// after a warm-up batch, a dispatch batch of new depths on the same
// cached trace reuses the lane state core's idle list kept from the
// warm-up instead of building a lane hierarchy and arena set per point,
// so it allocates a bounded number of bytes per point.
func TestDispatchBytesPerPointBounded(t *testing.T) {
	const perPoint = 64 << 10
	s := newEdgeScheduler(16)
	s.workers = 2
	dispatch := func(useful []float64) (bytes uint64, points int) {
		req := SweepRequest{Useful: useful, Benchmarks: []string{"gcc"}, Instructions: 20000, Seed: 99}
		pts, err := req.points(edgeVersion, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.admit(pts, "t1"); err != nil {
			t.Fatal(err)
		}
		batch := s.takeBatch()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		s.runBatch(batch)
		runtime.ReadMemStats(&m)
		return m.TotalAlloc - before, len(batch)
	}
	dispatch([]float64{4, 6})
	got, n := dispatch([]float64{8, 10, 12, 14})
	if n != 4 {
		t.Fatalf("batch of %d points, want 4", n)
	}
	t.Logf("dispatch allocates %d B per point", got/uint64(n))
	if got > perPoint*uint64(n) {
		t.Errorf("dispatch allocates %d B per point, want <= %d", got/uint64(n), perPoint)
	}
	if sims := s.rec.Counter("simulations"); sims != 6 {
		t.Errorf("simulations = %d, want 6", sims)
	}
}

// TestFinishJobSimulationError: admission only enqueues resolved
// points, so a simulation error is a should-never-happen internal
// failure. finishJob must still surface it on the job — uncached and
// stream-visible — without counting the point done.
func TestFinishJobSimulationError(t *testing.T) {
	// The subtest name predates the removal of the flat dispatch; the
	// grouped dispatch it named is the only one left.
	t.Run("batch=true", func(t *testing.T) {
		s := newEdgeScheduler(8)
		pt := edgePoints(t, []string{"gcc"}, []float64{6})[0]
		j := &job{pt: pt, done: make(chan struct{})}
		j.waiters.Add(1)
		s.inflight[pt.Key()] = j
		s.running = 1
		boom := errors.New("simulator failed")
		s.finishJob(j, core.BenchPoint{}, boom)
		if done, jerr := closedWithErr(j); !done || !errors.Is(jerr, boom) {
			t.Fatalf("failed point: done=%v err=%v, want the simulation error", done, jerr)
		}
		if _, ok := s.cache.Get(pt.Key()); ok {
			t.Fatal("a failed simulation landed in the cache")
		}
		if got := s.rec.Counter("points_done"); got != 0 {
			t.Fatalf("points_done = %d for a failed point", got)
		}
	})
}

// TestStreamErrorLine pins the uncached error line's wire shape.
func TestStreamErrorLine(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.streamError(rec, "k123", errors.New("boom"))
	if got, want := rec.Body.String(), `{"error":"boom","key":"k123"}`+"\n"; got != want {
		t.Fatalf("streamError line = %q, want %q", got, want)
	}
}
