package obs

import (
	"errors"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"time"
)

// StartOptions configures Start; the fields mirror the telemetry flags in
// internal/cliflags one for one.
type StartOptions struct {
	Command string // binary name, recorded in the manifest

	Verbose bool // -v: debug-level run log (per-study progress)
	Quiet   bool // -quiet: errors only

	Manifest   string // -manifest: write the run-manifest JSON here on Close
	CPUProfile string // -cpuprofile: runtime/pprof CPU profile path
	MemProfile string // -memprofile: heap profile path, written on Close
	Trace      string // -trace: runtime/trace execution trace path

	// LogWriter receives the structured run log; nil means os.Stderr, so
	// logging never mixes into the study output on stdout.
	LogWriter io.Writer
}

// Level maps the -v/-quiet pair to a slog level: -v shows run progress
// (debug and up), the default shows only warnings, -quiet only errors.
func Level(verbose, quiet bool) slog.Level {
	switch {
	case quiet:
		return slog.LevelError
	case verbose:
		return slog.LevelDebug
	default:
		return slog.LevelWarn
	}
}

// Run is one binary invocation's telemetry session: its logger and
// recorder, plus the profiling state that Close unwinds.
type Run struct {
	Command string
	Log     *slog.Logger

	rec    *Recorder
	opts   StartOptions
	start  time.Time
	config map[string]any
	cpu    *os.File
	trc    *os.File
}

// Start validates the options, builds the structured logger, and starts
// CPU profiling and execution tracing when requested. Every Start must be
// paired with exactly one Close, after the study output is emitted.
func Start(o StartOptions) (*Run, error) {
	if o.Verbose && o.Quiet {
		return nil, errors.New("-v and -quiet are mutually exclusive")
	}
	w := o.LogWriter
	if w == nil {
		w = os.Stderr
	}
	log := slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: Level(o.Verbose, o.Quiet)}))
	r := &Run{
		Command: o.Command,
		Log:     log,
		rec:     New(log),
		opts:    o,
		start:   time.Now(), //reprolint:allow nondeterminism: run wall time goes to the manifest only, never into study output
		config:  map[string]any{},
	}
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		r.cpu = f
	}
	if o.Trace != "" {
		f, err := os.Create(o.Trace)
		if err != nil {
			r.stopProfiles()
			return nil, err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			r.stopProfiles()
			return nil, err
		}
		r.trc = f
	}
	log.Debug("run start", "command", o.Command,
		"go", runtime.Version(), "gomaxprocs", runtime.GOMAXPROCS(0))
	return r, nil
}

// Recorder returns the run's recorder (nil on a nil run, which the
// recorder's nil-safety absorbs).
func (r *Run) Recorder() *Recorder {
	if r == nil {
		return nil
	}
	return r.rec
}

// SetConfig records one configuration key for the manifest.
func (r *Run) SetConfig(key string, v any) {
	if r == nil {
		return
	}
	r.config[key] = v
}

// stopProfiles unwinds whatever profiling Start began, keeping the first
// file-close error.
func (r *Run) stopProfiles() error {
	var first error
	if r.cpu != nil {
		pprof.StopCPUProfile()
		if err := r.cpu.Close(); err != nil && first == nil {
			first = err
		}
		r.cpu = nil
	}
	if r.trc != nil {
		rtrace.Stop()
		if err := r.trc.Close(); err != nil && first == nil {
			first = err
		}
		r.trc = nil
	}
	return first
}

// Close stops profiling, writes the heap profile and the run manifest,
// and logs the run summary. Call it once, after the study output has been
// emitted, so profiles and wall time cover the whole run.
func (r *Run) Close() error {
	wall := time.Since(r.start) //reprolint:allow nondeterminism: run wall time goes to the manifest and log only, never into study output
	first := r.stopProfiles()
	if r.opts.MemProfile != "" {
		if err := writeHeapProfile(r.opts.MemProfile); err != nil && first == nil {
			first = err
		}
	}
	snap := r.rec.Snapshot()
	r.Log.Info("run done", "command", r.Command, "wall", wall,
		"tasks", snap.Tasks.Count, "studies", len(snap.Studies),
		"trace_cache_hits", snap.Counters["trace_cache_hits"],
		"trace_cache_misses", snap.Counters["trace_cache_misses"],
		"trace_cache_evictions", snap.Counters["trace_cache_evictions"])
	if r.opts.Manifest != "" {
		m := NewManifest(r.Command, r.config, wall, snap)
		if err := WriteManifest(r.opts.Manifest, m); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeHeapProfile forces a GC so the profile reflects live objects, then
// writes the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
