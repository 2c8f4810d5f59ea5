package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The traced run measures through instruments the untraced run does not
// have: a timing wrapper around the result store and a RunBatch replay
// of each study. These tests hold both to the program they measure.

func TestTimingStoreServesByteIdenticalBodies(t *testing.T) {
	dir := t.TempDir()
	g := newGen(1)
	reqs := []serve.SweepRequest{g.coldRequest(), g.coldRequest(), g.coldRequest()}

	// Simulate the grids once, then replay them after a warm restart on
	// a plain store and again on the wrapped one.
	sim, err := openDaemon(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		want[i] = postValid(t, sim, req)
	}
	if err := sim.close(); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		d, err := openDaemon(dir, traced)
		if err != nil {
			t.Fatal(err)
		}
		for i, req := range reqs {
			if got := postValid(t, d, req); !bytes.Equal(got, want[i]) {
				t.Errorf("traced=%v: grid %d body differs from the simulated one", traced, i)
			}
		}
		if traced {
			if get, _ := d.timing.samples(); len(get) == 0 {
				t.Error("the timing store timed no Get: the server did not read through it")
			}
		}
		st, err := d.stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHitRatio != 1 {
			t.Errorf("traced=%v: cache hit ratio %v after a warm restart, want 1", traced, st.CacheHitRatio)
		}
		if err := d.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// postValid posts req and returns its validated body.
func postValid(t *testing.T, d *daemon, req serve.SweepRequest) []byte {
	t.Helper()
	exp, err := expect(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.post(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.validate(r); err != nil {
		t.Fatal(err)
	}
	return r.body
}

func TestTracedReplayMatchesUntracedStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full Figure 5 study")
	}
	const seed = 42
	res := experiments.RunFigure5(studyOptions(seed, nil))
	probe := &layerProbe{}
	suite := trace.SPEC2000()
	traces := make([]*trace.Trace, len(suite))
	for i, p := range suite {
		traces[i] = probe.generate(p, studyInstructions, seed)
	}
	if err := replayStudy(probe, res, traces); err != nil {
		t.Fatal(err)
	}
	if got, want := len(probe.batchMS), len(suite); got != want {
		t.Fatalf("replay made %d RunBatch calls, want one per benchmark (%d)", got, want)
	}
	if lanes := probe.batchLanes / uint64(len(probe.batchMS)); lanes != 15 {
		t.Fatalf("replay ran %d lanes per call, want the 15 depths of the paper grid", lanes)
	}

	// The comparison must catch a cell that differs in the last bit.
	cell := &res.Sweep.Points[4].PerBench[3]
	cell.IPC = math.Nextafter(cell.IPC, math.Inf(1))
	if err := replayStudy(&layerProbe{}, res, traces); err == nil {
		t.Fatal("replay accepted a study whose IPC differs in one cell")
	}
}

func TestServedReplayMatchesStream(t *testing.T) {
	d, err := openDaemon(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	g := newGen(2)
	var xs []exchange
	for i := 0; i < 3; i++ { // one request per machine shape
		req := g.coldRequest()
		exp, err := expect(req)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.post(req)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := exp.validate(r)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, exchange{exp: exp, lines: lines})
	}
	if err := replayExchanges(&layerProbe{}, xs); err != nil {
		t.Fatal(err)
	}

	// Perturb one streamed IPC in the last bit: the replay must notice.
	var pr serve.PointResult
	if err := json.Unmarshal(xs[1].lines[0], &pr); err != nil {
		t.Fatal(err)
	}
	pr.IPC = math.Nextafter(pr.IPC, math.Inf(1))
	bad, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	xs[1].lines[0] = bad
	if err := replayExchanges(&layerProbe{}, xs); err == nil {
		t.Fatal("replay accepted a stream whose IPC differs in one line")
	}
}
