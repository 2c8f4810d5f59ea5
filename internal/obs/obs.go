// Package obs is the run-telemetry layer shared by every study binary:
// structured logging on log/slog, a Recorder of counters and spans fed by
// the executor's task hooks, a run-manifest JSON export, and CPU/heap/
// execution-trace profiling wiring.
//
// Telemetry is observation-only by contract: nothing in this package may
// influence simulation results. Recorders hang off configuration structs
// as optional pointers, every Recorder method is safe on a nil receiver,
// and the invariance test in internal/experiments pins study output
// byte-for-byte identical with telemetry on and off at any worker count.
package obs

import (
	"log/slog"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Recorder accumulates counters and spans for one run. All methods are
// safe for concurrent use and no-ops on a nil receiver, so callers thread
// a *Recorder without guarding every call site.
type Recorder struct {
	log *slog.Logger

	mu          sync.Mutex
	counters    map[string]int64
	studies     []*study
	open        []*study // stack: the innermost study collects task durations
	tasks       durations
	queueWaits  durations
	workerTasks map[int]int64
}

// study is one span. Durations of tasks completed while the span is the
// innermost open one attribute to it.
type study struct {
	name  string
	start time.Time
	wall  time.Duration
	done  bool
	tasks durations
}

// New returns an empty recorder; log may be nil for silent recording.
func New(log *slog.Logger) *Recorder {
	return &Recorder{
		log:         log,
		counters:    map[string]int64{},
		workerTasks: map[int]int64{},
	}
}

// Add increments a named counter.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Study opens a named span and returns its closer. Studies nest (a
// driver that reuses another driver keeps both spans open); task
// durations attribute to the innermost open span. The conventional use is
//
//	defer o.Obs.Study("figure5")()
func (r *Recorder) Study(name string) func() {
	if r == nil {
		return func() {}
	}
	s := &study{name: name, start: time.Now()} //reprolint:allow nondeterminism: span wall time is telemetry output, observation-only by contract
	r.mu.Lock()
	r.studies = append(r.studies, s)
	r.open = append(r.open, s)
	r.mu.Unlock()
	if r.log != nil {
		r.log.Debug("study start", "study", name)
	}
	return func() {
		r.mu.Lock()
		if s.done { // double close: keep the first measurement
			r.mu.Unlock()
			return
		}
		s.wall = time.Since(s.start) //reprolint:allow nondeterminism: span wall time is telemetry output, observation-only by contract
		s.done = true
		for i := len(r.open) - 1; i >= 0; i-- {
			if r.open[i] == s {
				r.open = append(r.open[:i], r.open[i+1:]...)
				break
			}
		}
		wall, n := s.wall, s.tasks.count
		r.mu.Unlock()
		if r.log != nil {
			r.log.Debug("study done", "study", name, "wall", wall, "tasks", n)
		}
	}
}

// Counter returns the current value of one named counter (0 when the
// counter has never been incremented, or on a nil recorder). The serving
// layer's /stats endpoint reads individual gauges through it without
// paying for a full Snapshot.
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// TaskStart records one executor task being picked up; queueWait is how
// long the task waited between its grid being submitted and this start.
// The signature matches exec.Pool's OnTaskStart hook.
func (r *Recorder) TaskStart(worker, index int, queueWait time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.queueWaits.add(queueWait)
	r.mu.Unlock()
}

// TaskDone records one completed executor task and its duration. The
// signature matches exec.Pool's OnTaskDone hook.
func (r *Recorder) TaskDone(worker, index int, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tasks.add(d)
	r.workerTasks[worker]++
	if n := len(r.open); n > 0 {
		r.open[n-1].tasks.add(d)
	}
	r.mu.Unlock()
}

// DurationStats summarizes a duration sample in milliseconds.
type DurationStats struct {
	Count   int     `json:"count"`
	MinMS   float64 `json:"min_ms"`
	P50MS   float64 `json:"p50_ms"`
	MaxMS   float64 `json:"max_ms"`
	TotalMS float64 `json:"total_ms"`
}

// recentSamples is the length of a durations ring: the median is taken
// over at most this many of the latest samples.
const recentSamples = 1024

// durations is a fixed-size summary of a duration stream, so a
// long-lived process's Recorder does not grow with the tasks it runs.
// Count, total, min and max are exact over every sample. The median is
// that of the latest recentSamples samples, which is exact for any
// stream of at most that many — every study's task count.
type durations struct {
	count           int
	total, min, max time.Duration
	recent          []time.Duration // ring once full; slot count%recentSamples is the oldest
}

func (d *durations) add(x time.Duration) {
	if d.count == 0 || x < d.min {
		d.min = x
	}
	if d.count == 0 || x > d.max {
		d.max = x
	}
	d.total += x
	if len(d.recent) < recentSamples {
		d.recent = append(d.recent, x)
	} else {
		d.recent[d.count%recentSamples] = x
	}
	d.count++
}

func (d *durations) stats() DurationStats {
	if d.count == 0 {
		return DurationStats{}
	}
	recent := slices.Clone(d.recent)
	slices.Sort(recent)
	ms := func(x time.Duration) float64 { return float64(x) / float64(time.Millisecond) }
	return DurationStats{
		Count:   d.count,
		MinMS:   ms(d.min),
		P50MS:   ms(recent[len(recent)/2]),
		MaxMS:   ms(d.max),
		TotalMS: ms(d.total),
	}
}

// StudyStats is one study span in a snapshot.
type StudyStats struct {
	Name   string        `json:"name"`
	WallMS float64       `json:"wall_ms"`
	Tasks  DurationStats `json:"tasks"`
}

// Snapshot is a point-in-time copy of everything a Recorder holds.
// Worker-task keys are decimal worker ids (JSON object keys are strings).
type Snapshot struct {
	Counters    map[string]int64 `json:"counters"`
	Studies     []StudyStats     `json:"studies"`
	Tasks       DurationStats    `json:"tasks"`
	QueueWait   DurationStats    `json:"queue_wait"`
	WorkerTasks map[string]int64 `json:"worker_tasks"`
}

// Snapshot copies the recorder's current state; a nil recorder yields an
// empty (but non-nil-mapped) snapshot. Open studies report the wall time
// elapsed so far.
func (r *Recorder) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]int64{}, WorkerTasks: map[string]int64{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		snap.Counters[k] = v
	}
	for w, n := range r.workerTasks {
		snap.WorkerTasks[strconv.Itoa(w)] = n
	}
	for _, s := range r.studies {
		wall := s.wall
		if !s.done {
			wall = time.Since(s.start) //reprolint:allow nondeterminism: open-span elapsed time is telemetry output, observation-only by contract
		}
		snap.Studies = append(snap.Studies, StudyStats{
			Name:   s.name,
			WallMS: float64(wall) / float64(time.Millisecond),
			Tasks:  s.tasks.stats(),
		})
	}
	snap.Tasks = r.tasks.stats()
	snap.QueueWait = r.queueWaits.stats()
	return snap
}
