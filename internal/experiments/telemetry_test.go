package experiments

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestTelemetryInvariance pins the observability layer's hard contract:
// telemetry is observation-only. For a fixed seed, a study's text and
// JSON output must be byte-for-byte identical with telemetry enabled or
// disabled, on the serial path and on the full worker pool. CI runs this
// under -race, so the recorder's concurrent hook calls are exercised too.
func TestTelemetryInvariance(t *testing.T) {
	mk := func(workers int, rec *obs.Recorder) Options {
		// Instruction count chosen to be unique to this test so the
		// process-wide trace cache cannot leak traces between tests.
		return Options{Instructions: 2501, Seed: 7, Workers: workers, Obs: rec}
	}
	variants := []struct {
		name string
		o    Options
	}{
		{"plain-serial", mk(1, nil)},
		{"plain-parallel", mk(0, nil)},
		{"telemetry-serial", mk(1, obs.New(nil))},
		{"telemetry-parallel", mk(0, obs.New(nil))},
	}

	var wantText string
	var wantJSON []byte
	for i, v := range variants {
		res := RunFigure4b(v.o)
		text := res.Render()
		raw, err := res.JSON()
		if err != nil {
			t.Fatalf("%s: JSON: %v", v.name, err)
		}
		if i == 0 {
			wantText, wantJSON = text, raw
			continue
		}
		if text != wantText {
			t.Errorf("%s: text output differs from %s", v.name, variants[0].name)
		}
		if !bytes.Equal(raw, wantJSON) {
			t.Errorf("%s: JSON output differs from %s", v.name, variants[0].name)
		}
	}

	// The telemetry variants must also have actually observed the run.
	snap := variants[3].o.Obs.Snapshot()
	if snap.Tasks.Count == 0 {
		t.Error("telemetry recorder saw no tasks")
	}
	if len(snap.Studies) != 1 || snap.Studies[0].Name != "figure4b" {
		t.Errorf("studies = %+v, want one figure4b span", snap.Studies)
	}
}

// TestTraceCacheTelemetry checks the acceptance criterion on the shared
// trace cache: a multi-study run at one (instructions, seed) generates
// each benchmark trace once (misses) and reuses it in the later study
// (hits > 0).
func TestTraceCacheTelemetry(t *testing.T) {
	rec := obs.New(nil)
	// Unique instruction count: this test must own its cache keys.
	o := Options{Instructions: 2503, Seed: 11, Obs: rec}
	RunFigure4b(o)
	RunFigure5(o)
	snap := rec.Snapshot()
	if snap.Counters["trace_cache_misses"] == 0 {
		t.Error("no trace-cache misses recorded; first study should generate traces")
	}
	if snap.Counters["trace_cache_hits"] == 0 {
		t.Error("no trace-cache hits recorded across two studies sharing the suite")
	}
	if _, ok := snap.Counters["trace_cache_evictions"]; !ok {
		t.Error("trace_cache_evictions missing from the counters; every miss reports the evictions it caused")
	}
	if snap.Counters["simulations"] == 0 {
		t.Error("no simulations counted")
	}
	if len(snap.Studies) != 2 {
		t.Errorf("studies = %d, want 2", len(snap.Studies))
	}
	for _, s := range snap.Studies {
		if s.Tasks.Count == 0 {
			t.Errorf("study %s recorded no tasks", s.Name)
		}
		if s.Tasks.MinMS > s.Tasks.P50MS || s.Tasks.P50MS > s.Tasks.MaxMS {
			t.Errorf("study %s has inconsistent task stats: %+v", s.Name, s.Tasks)
		}
	}
}
