package serve

// The scheduler is the daemon's heart: a content-addressed result cache
// over single-point simulations, a singleflight registry of in-flight
// points, and one dispatcher that feeds queued points through the
// deterministic executor (internal/exec) in batches — grouped by
// benchmark trace, so the depths of a multi-depth sweep share one trace
// walk (core.SimulateBatch) — on simulation state borrowed from core's
// idle list, so the daemon's lane state outlives every dispatch batch.
// Concurrent clients asking overlapping grids attach to the same job, so
// each distinct point simulates at most once per process; a point whose
// every requester has disconnected is pruned from the queue immediately
// (or skipped mid-batch through the executor's Skip hook) instead of
// burning simulation time for nobody.

import (
	"encoding/json"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/store"
)

// ErrQueueFull is returned by admit when accepting a request's new
// points would push the queue past its depth limit; the HTTP layer maps
// it to 429 + Retry-After.
var ErrQueueFull = errors.New("point queue full")

// ErrStopped is returned by admit once close has begun: the dispatcher
// may already have drained for the last time, so enqueueing would strand
// the request forever. The HTTP layer maps it to 503.
var ErrStopped = errors.New("scheduler stopped")

// errCancelled finalizes a job whose every requester went away before it
// ran. No client ever observes it (a job with waiters never carries it);
// it exists so an abandoned job's done channel still closes.
var errCancelled = errors.New("point cancelled: all requesters disconnected")

// job is one distinct simulation point moving through the scheduler.
// Exactly one of line/err is set before done closes; both are immutable
// afterwards. waiters counts the request streams still wanting the
// result — it is atomic so the executor's Skip hook can read it without
// taking the scheduler lock mid-batch.
type job struct {
	pt core.Point

	done chan struct{}
	line []byte // the newline-terminated NDJSON result, set before done closes
	err  error

	waiters atomic.Int32
	ran     bool // set by the worker that simulated it, read after the batch

	// Tracing/metrics carry-alongs, observation-only by contract: the
	// request ID of the request that created the job (joiners share it —
	// singleflight means the origin's simulation serves them all) and
	// the admission time feeding the queue-wait histogram.
	origin   string
	enqueued time.Time
}

// ticket is one point of one request's stream: either already resolved
// from the cache at admission, or a job to wait on.
type ticket struct {
	line []byte
	job  *job
}

// scheduler owns the queue, the singleflight registry and the result
// store. The queue and registry are guarded by mu; the dispatcher
// goroutine is the only caller of runBatch.
//
// The result store is the pluggable ResultStore seam (internal/store):
// a bounded in-memory LRU by default, or a durable warm-start store
// when the daemon runs with -store. The store has its own internal
// locking; scheduler calls into it both under mu (admission
// classification must be atomic against the queue) and outside it
// (finalize) — the nesting is always scheduler.mu -> store, never the
// reverse.
type scheduler struct {
	rec         *obs.Recorder
	log         *slog.Logger
	metrics     *serverMetrics
	workers     int
	codeVersion string
	queueLimit  int
	cache       store.ResultStore

	mu       sync.Mutex
	queue    []*job
	inflight map[string]*job // queued or running jobs by key
	running  int             // dispatched jobs not yet finalized, requeued or dropped
	closing  bool

	wake    chan struct{} // buffered(1): queued work is waiting
	stop    chan struct{}
	stopped chan struct{}
}

func newScheduler(workers, queueLimit int, cache store.ResultStore, codeVersion string, rec *obs.Recorder, log *slog.Logger, metrics *serverMetrics) *scheduler {
	if log == nil {
		log = slog.Default()
	}
	if metrics == nil {
		metrics = &serverMetrics{} // nil instruments: every observation no-ops
	}
	s := &scheduler{
		rec:         rec,
		log:         log,
		metrics:     metrics,
		workers:     workers,
		codeVersion: codeVersion,
		queueLimit:  queueLimit,
		cache:       cache,
		inflight:    map[string]*job{},
		wake:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		stopped:     make(chan struct{}),
	}
	// The dispatcher is the one goroutine the serving layer owns; every
	// simulation it dispatches still runs through exec.Map, so parallel
	// work stays behind the deterministic pool.
	go s.run() //reprolint:allow goroutinescope: the dispatcher only moves queued jobs into exec.Map batches; all simulation parallelism stays behind the deterministic executor
	return s
}

// admitStats is one request's admission classification, for the access
// log and the request trace: how many of its points were already
// resolved (hits, of which joins attached to in-flight work) versus
// genuinely new (misses). hits+misses == points admitted.
type admitStats struct {
	hits   int
	misses int
	joins  int
}

// admit classifies each point of one request against the cache and the
// in-flight registry, enqueues the genuinely new ones, and returns one
// ticket per point in request order. pts must already be deduplicated
// by key; origin is the requester's trace ID, carried by each newly
// created job. When admitting would push the queue past its depth limit
// nothing is enqueued and ErrQueueFull is returned.
func (s *scheduler) admit(pts []core.Point, origin string) ([]ticket, admitStats, error) {
	var adm admitStats
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.closing {
		// close() may already have run the dispatcher's final drain;
		// enqueueing now would block the caller on a job nobody will run.
		return nil, adm, ErrStopped
	}

	// One store probe per key: the line (if resident or on disk) is held
	// for the classification pass below, so a hit is fetched exactly once.
	// Store state cannot shift between the passes — every store mutation
	// on the serving path (finalize's Put) runs under this same mutex.
	lines := make([][]byte, len(pts))
	fresh := 0
	for i, p := range pts {
		k := p.Key()
		if line, ok := s.cache.Get(k); ok {
			lines[i] = line
			continue
		}
		if _, ok := s.inflight[k]; ok {
			continue
		}
		fresh++
	}
	if s.queueLimit > 0 && len(s.queue)+fresh > s.queueLimit {
		// The HTTP layer accounts the rejection (by reason) so direct
		// scheduler callers and requests share one counting site.
		return nil, adm, ErrQueueFull
	}

	tickets := make([]ticket, 0, len(pts))
	for i, p := range pts {
		if lines[i] != nil {
			s.rec.Add("point_cache_hits", 1)
			adm.hits++
			tickets = append(tickets, ticket{line: lines[i]})
			continue
		}
		if j, ok := s.inflight[p.Key()]; ok {
			// Singleflight join: the simulation is queued or running for
			// someone else; share it. A join is a hit — the work exists.
			j.waiters.Add(1)
			s.rec.Add("point_cache_hits", 1)
			s.rec.Add("dedup_joins", 1)
			adm.hits++
			adm.joins++
			tickets = append(tickets, ticket{job: j})
			continue
		}
		j := &job{pt: p, done: make(chan struct{}),
			origin: origin, enqueued: time.Now()}
		j.waiters.Add(1)
		s.inflight[p.Key()] = j
		s.queue = append(s.queue, j)
		s.rec.Add("point_cache_misses", 1)
		adm.misses++
		tickets = append(tickets, ticket{job: j})
	}

	select {
	case s.wake <- struct{}{}:
	default:
	}
	return tickets, adm, nil
}

// release detaches one request from the tickets it never consumed (the
// client disconnected mid-stream). Queued jobs nobody else wants are
// pruned immediately; running ones are left for the executor's Skip hook
// and the post-batch sweep.
func (s *scheduler) release(tickets []ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range tickets {
		if t.job == nil {
			continue
		}
		t.job.waiters.Add(-1)
	}
	kept := s.queue[:0]
	for _, j := range s.queue {
		if j.waiters.Load() > 0 {
			kept = append(kept, j)
			continue
		}
		s.cancel(j)
	}
	s.queue = kept
}

// cancel retires a job whose waiters all left before it ran: it leaves
// inflight, fails with errCancelled and counts as dropped. Called with
// s.mu held.
func (s *scheduler) cancel(j *job) {
	delete(s.inflight, j.pt.Key())
	j.err = errCancelled
	close(j.done)
	s.rec.Add("points_dropped", 1)
}

// takeBatch claims every queued job that still has a waiter. Called by
// the dispatcher only.
func (s *scheduler) takeBatch() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	batch := make([]*job, 0, len(s.queue))
	for _, j := range s.queue {
		if j.waiters.Load() <= 0 { // release prunes these; belt and braces
			s.cancel(j)
			continue
		}
		batch = append(batch, j)
	}
	s.queue = s.queue[:0]
	s.running += len(batch)
	return batch
}

// runBatch simulates one batch on the deterministic executor, grouped
// by benchmark trace so a multi-depth sweep runs every depth of a
// benchmark through one pipeline.RunBatch walk (see runGrouped). Each
// job finalizes (cache write + done close) the moment its group
// completes, so request streams advance while the batch is still
// running; jobs whose waiters all vanished are skipped by the executor
// and either requeued (a new waiter attached in the window before the
// skip) or dropped.
func (s *scheduler) runBatch(batch []*job) {
	s.runGrouped(batch)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range batch {
		if j.ran {
			continue // finalize already retired it from running
		}
		s.running--
		if j.waiters.Load() > 0 {
			// A new request attached while the batch was skipping it:
			// put it back in line rather than failing the newcomer (the
			// dispatcher's drain loop picks it up on its next pass).
			s.queue = append(s.queue, j)
			continue
		}
		s.cancel(j)
	}
}

// traceIdent is the normalized trace identity the grouped dispatch
// batches on: two points with equal idents walk the same generated
// trace, so their depth-invariant work can be shared.
type traceIdent struct {
	bench string
	n     int
	seed  uint64
}

func identOf(p core.Point) traceIdent {
	o := p.Options()
	return traceIdent{bench: o.Benchmark, n: o.Instructions, seed: o.Seed}
}

// runGrouped simulates a batch grouped by benchmark trace: one executor
// task per group (groups form in first-seen queue order), every group
// running its lanes through core.SimulateBatch, which borrows its lane
// state from core's idle list and keeps it there between batches. The
// executor's Skip hook drops a group only when every lane lost its
// waiters; a group that runs re-filters its lanes, so a point abandoned
// after the group check simply isn't simulated and takes the usual
// requeue-or-drop path after the batch.
// The batch accounting counters stay off the wire, so a point's line is
// the same bytes whatever group it ran in; the serve tests pin it
// against core.SimulatePoint.
func (s *scheduler) runGrouped(batch []*job) {
	groups := make([][]*job, 0, len(batch))
	index := make(map[traceIdent]int, len(batch))
	for _, j := range batch {
		id := identOf(j.pt)
		gi, ok := index[id]
		if !ok {
			gi = len(groups)
			index[id] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], j)
	}
	pool := exec.Pool{
		Workers:     s.workers,
		OnTaskStart: s.rec.TaskStart,
		OnTaskDone:  s.rec.TaskDone,
		Skip: func(g int) bool {
			for _, j := range groups[g] {
				if j.waiters.Load() > 0 {
					return false
				}
			}
			return true
		},
	}
	exec.Map(pool, groups, func(_ int, jobs []*job) struct{} {
		live := jobs[:0]
		for _, j := range jobs {
			if j.waiters.Load() > 0 {
				live = append(live, j)
			}
		}
		if len(live) == 0 {
			return struct{}{}
		}
		pts := make([]core.Point, len(live))
		for i, j := range live {
			j.ran = true
			s.metrics.queueWait.Observe(time.Since(j.enqueued).Seconds())
			pts[i] = j.pt
		}
		results, err := core.SimulateBatch(pts, s.rec)
		for i, j := range live {
			if err != nil {
				s.finishJob(j, core.BenchPoint{}, err)
				continue
			}
			s.finishJob(j, results[i], nil)
		}
		return struct{}{}
	})
}

// finishJob publishes one simulated job: marshal, count, finalize. err
// is the should-not-happen guard for points that were validated at
// admission; it surfaces on the stream without caching.
func (s *scheduler) finishJob(j *job, res core.BenchPoint, err error) {
	if err != nil {
		j.err = err
		s.finalize(j, nil)
		return
	}
	line, merr := json.Marshal(newPointResult(j.pt, res))
	if merr != nil {
		j.err = merr
		s.finalize(j, nil)
		return
	}
	// The newline is part of the cached line: the slice is shared
	// by every stream that hits this point, so it must never be
	// appended to after it leaves this worker.
	line = append(line, '\n')
	s.rec.Add("simulations", 1)
	s.rec.Add("wakeup_wakes", int64(res.Stats.WakeupWakes))
	s.rec.Add("wakeup_scanned", int64(res.Stats.WakeupScanned))
	s.finalize(j, line)
	// The trace's scheduler hop: ties the simulation and store
	// fill back to the request that caused them.
	s.log.Debug("point simulated",
		"request_id", j.origin,
		"key", j.pt.Key(),
		"bytes", len(line))
}

// finalize publishes one completed job: result stored (on success — a
// durable store also appends it to the segment log here, write-through),
// registry entry retired, running count decremented, waiters woken. The
// store write happens under mu so admission's classify-then-enqueue stays
// atomic against it, and running drops before done closes, so a stream
// that has read its last line never sees its point still counted as
// running.
func (s *scheduler) finalize(j *job, line []byte) {
	s.mu.Lock()
	s.running--
	if line != nil {
		j.line = line
		s.cache.Put(j.pt.Key(), line)
		s.rec.Add("points_done", 1)
	}
	delete(s.inflight, j.pt.Key())
	s.mu.Unlock()
	close(j.done)
}

// run is the dispatcher loop: drain the queue batch by batch whenever
// woken; on stop, finish whatever is already admitted (the HTTP layer
// has stopped admitting by then) so draining streams complete, then
// exit.
func (s *scheduler) run() {
	defer close(s.stopped)
	for {
		select {
		case <-s.stop:
			s.drainQueue()
			return
		case <-s.wake:
			s.drainQueue()
		}
	}
}

func (s *scheduler) drainQueue() {
	for {
		batch := s.takeBatch()
		if len(batch) == 0 {
			return
		}
		s.runBatch(batch)
	}
}

// close stops the dispatcher after it finishes every admitted job and
// waits for it to exit. Safe to call once. Setting closing under mu
// before closing stop orders every admit against the final drain: an
// admit that saw closing==false finished enqueueing before close(s.stop),
// so the dispatcher's last drainQueue still picks its jobs up; any later
// admit fails with ErrStopped instead of stranding its caller.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	close(s.stop)
	<-s.stopped
}

// gauges reports the live queue state for /healthz and the stats
// snapshot, read under one lock so queued and running are consistent.
func (s *scheduler) gauges() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.running
}
