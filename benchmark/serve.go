package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/store"
)

// codeVersion is the cache-key version every server and store of a run
// shares, so a reopened store serves what an earlier server simulated.
const codeVersion = "benchmark"

// Live-heap marks: the timed operation after which each serving
// workload reads its live heap (see runCtx.timed).
const (
	coldHeapMark = 100
	hotHeapMark  = 200
)

// serveClients is the number of closed-loop clients: two, as /sweep
// callers are scripts that each wait for their stream, and never more
// than the CPUs the process may use.
func serveClients() int {
	return min(2, runtime.NumCPU())
}

// discardLog is the daemon's access log: a text handler writing to
// io.Discard, so each request still pays for formatting its log line
// but no terminal I/O is timed.
func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// daemon is one in-process sweepd: a serve.Server over httptest, backed
// by a store.Durable in its own directory.
type daemon struct {
	durable *store.Durable
	timing  *timingStore // set on traced daemons only
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	openDur time.Duration // store.Open, which replays the segment log
}

// openDaemon opens the store in dir, replaying whatever it holds, and
// starts a server on it. A traced daemon runs its store through a
// timingStore.
func openDaemon(dir string, traced bool) (*daemon, error) {
	t0 := time.Now()
	durable, err := store.Open(store.Options{Dir: dir, CodeVersion: codeVersion, Log: discardLog()})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	d := &daemon{durable: durable, openDur: time.Since(t0)}
	var rs store.ResultStore = durable
	if traced {
		d.timing = &timingStore{ResultStore: durable}
		rs = d.timing
	}
	d.srv = serve.New(serve.Config{Store: rs, CodeVersion: codeVersion, Log: discardLog()})
	d.ts = httptest.NewServer(d.srv)
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients(),
		MaxIdleConnsPerHost: serveClients(),
	}}
	return d, nil
}

// close stops the listener (waiting for open requests), drains the
// server and closes the store.
func (d *daemon) close() error {
	d.ts.Close()
	d.client.CloseIdleConnections()
	d.srv.Close()
	return d.durable.Close()
}

// closeInto closes d for a deferred call, reporting the close error
// through *err unless an earlier error is already there.
func (d *daemon) closeInto(err *error) {
	if cerr := d.close(); *err == nil {
		*err = cerr
	}
}

// response is one /sweep exchange as the client saw it.
type response struct {
	status    int
	body      []byte
	headers   time.Duration // POST until the response headers
	firstLine time.Duration // POST until the first complete NDJSON line
	total     time.Duration // POST until the stream's last byte
}

// post sends one sweep request and reads its whole stream.
func (d *daemon) post(req serve.SweepRequest) (response, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return response{}, err
	}
	t0 := time.Now()
	resp, err := d.client.Post(d.ts.URL+"/sweep", "application/json", bytes.NewReader(payload))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	r := response{status: resp.StatusCode, headers: time.Since(t0)}
	var body bytes.Buffer
	chunk := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 {
			if r.firstLine == 0 && bytes.IndexByte(chunk[:n], '\n') >= 0 {
				r.firstLine = time.Since(t0)
			}
			body.Write(chunk[:n])
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return r, fmt.Errorf("read stream: %w", err)
		}
	}
	r.total = time.Since(t0)
	r.body = body.Bytes()
	return r, nil
}

// expected is what a correct stream for one request holds.
type expected struct {
	pts  []core.PointOptions
	keys []string
}

func expect(req serve.SweepRequest) (expected, error) {
	pts, keys, err := req.Points(codeVersion, serve.Limits{})
	return expected{pts: pts, keys: keys}, err
}

// validate checks a stream: status 200, one result line per point in
// request order, each carrying its point's key and an IPC and no error,
// then the trailer. It returns the result lines.
func (e expected) validate(r response) ([][]byte, error) {
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	lines := bytes.SplitAfter(r.body, []byte("\n"))
	if n := len(lines); n == 0 || len(lines[n-1]) != 0 {
		return nil, errors.New("stream does not end with a complete line")
	}
	lines = lines[:len(lines)-1]
	if len(lines) != len(e.keys)+1 {
		return nil, fmt.Errorf("stream has %d lines, want %d points and the trailer", len(lines), len(e.keys))
	}
	if want := fmt.Sprintf("{\"done\":true,\"points\":%d}\n", len(e.keys)); string(lines[len(e.keys)]) != want {
		return nil, fmt.Errorf("trailer %q, want %q", lines[len(e.keys)], want)
	}
	for i, key := range e.keys {
		l := lines[i]
		if !bytes.HasPrefix(l, []byte(`{"key":"`+key+`"`)) || !bytes.Contains(l, []byte(`"ipc":`)) || bytes.Contains(l, []byte(`"error":`)) {
			return nil, fmt.Errorf("line %d is not the result for key %s: %.200s", i, key, l)
		}
	}
	return lines[:len(e.keys)], nil
}

// checkLine recomputes one streamed point with core.SimulatePoint and
// requires the same IPC, bit for bit.
func checkLine(line []byte, o core.PointOptions) error {
	var pr serve.PointResult
	if err := json.Unmarshal(line, &pr); err != nil {
		return fmt.Errorf("decode result line: %w", err)
	}
	want, err := core.SimulatePoint(o, nil)
	if err != nil {
		return err
	}
	if math.Float64bits(pr.IPC) != math.Float64bits(want.IPC) {
		return fmt.Errorf("served IPC %v for %s at %g FO4, core.SimulatePoint gives %v", pr.IPC, o.Benchmark, o.Useful, want.IPC)
	}
	return nil
}

// exchange is one served stream kept for checks after the timed phase.
type exchange struct {
	exp   expected
	lines [][]byte
}

// serveSpans collects the client-side spans of a traced phase.
type serveSpans struct {
	mu                               sync.Mutex
	headersMS, firstLineMS, streamMS []float64
	bytes, points                    int
	kept                             []exchange
}

func (s *serveSpans) add(r response, x exchange) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.headersMS = append(s.headersMS, ms(r.headers))
	s.firstLineMS = append(s.firstLineMS, ms(r.firstLine))
	s.streamMS = append(s.streamMS, ms(r.total-r.headers))
	s.bytes += len(r.body)
	s.points += len(x.exp.keys)
	if x.lines != nil {
		s.kept = append(s.kept, x)
	}
}

// simSide is what a traced daemon that simulated a workload's points
// reports about that work, read before the daemon closes.
type simSide struct {
	stats       serve.Stats
	queueWaitMS float64
	queueWaitN  int
	putUS       []float64
	store       store.Stats
}

func (d *daemon) simSide() (simSide, error) {
	st, err := d.stats()
	if err != nil {
		return simSide{}, err
	}
	qw, n, err := d.queueWaitP50()
	if err != nil {
		return simSide{}, err
	}
	_, put := d.timing.samples()
	return simSide{stats: st, queueWaitMS: qw, queueWaitN: n, putUS: put, store: d.durable.Stats()}, nil
}

// report records the serving and store metrics: client spans from s,
// read-side figures from read, the daemon the spans were measured
// against, and simulation-side ones from sim.
func (s *serveSpans) report(rc *runCtx, read *daemon, sim simSide) error {
	rc.setTiming("serve.headers_ms_p50", s.headersMS, "ms")
	rc.setTiming("serve.first_line_ms_p50", s.firstLineMS, "ms")
	rc.setTiming("serve.stream_ms_p50", s.streamMS, "ms")
	rc.set("serve.bytes_per_point", ratio(float64(s.bytes), float64(s.points)), "B")

	st, err := read.stats()
	if err != nil {
		return err
	}
	rc.set("serve.cache_hit_ratio", st.CacheHitRatio, "ratio")
	rc.set("serve.dedup_joins", float64(st.DedupJoins), "count")
	rc.set("serve.rejected", float64(st.Rejected), "count")
	rc.metrics["serve.sim_task_ms_p50"] = metric{value: sim.stats.Telemetry.Tasks.P50MS, unit: "ms",
		note: fmt.Sprintf("%d tasks", sim.stats.Telemetry.Tasks.Count)}
	rc.metrics["serve.queue_wait_ms_p50"] = metric{value: sim.queueWaitMS, unit: "ms",
		note: fmt.Sprintf("%d points, from the sweep_queue_wait_seconds histogram", sim.queueWaitN)}

	get, _ := read.timing.samples()
	rc.setTiming("store.get_us_p50", get, "us")
	rc.setTiming("store.put_us_p50", sim.putUS, "us")
	ps := summarize(sim.putUS)
	rc.metrics["store.put_us_p90"] = metric{value: percentile(sim.putUS, 90), unit: "us", s: &ps}
	rc.set("store.open_s", read.openDur.Seconds(), "s")
	rs := read.durable.Stats()
	rc.set("store.bytes_per_record", ratio(float64(rs.StoreBytes), float64(rs.DiskEntries)), "B")
	rc.set("store.append_errors", float64(sim.store.AppendErrors), "count")
	rc.set("store.read_errors", float64(rs.ReadErrors), "count")
	return nil
}

// stats reads the daemon's /stats.
func (d *daemon) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := d.client.Get(d.ts.URL + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

// queueWaitP50 reads the median of the sweep_queue_wait_seconds
// histogram from /metrics, in milliseconds, interpolating linearly
// inside the bucket that holds it, and the number of observations.
func (d *daemon) queueWaitP50() (float64, int, error) {
	resp, err := d.client.Get(d.ts.URL + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	const prefix = `sweep_queue_wait_seconds_bucket{le="`
	var bounds, counts []float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		le, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			return 0, 0, fmt.Errorf("bad histogram line %q", sc.Text())
		}
		b, err1 := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			b, err1 = math.Inf(1), nil
		}
		c, err2 := strconv.ParseFloat(val, 64)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("bad histogram line %q", sc.Text())
		}
		bounds, counts = append(bounds, b), append(counts, c)
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if len(counts) == 0 || counts[len(counts)-1] == 0 {
		return 0, 0, nil
	}
	total := counts[len(counts)-1]
	target := total / 2
	lo, below := 0.0, 0.0
	for i, c := range counts {
		if c >= target {
			hi := bounds[i]
			if math.IsInf(hi, 1) {
				hi = lo
			}
			frac := ratio(target-below, c-below)
			return 1000 * (lo + frac*(hi-lo)), int(total), nil
		}
		lo, below = bounds[i], c
	}
	return 0, int(total), nil
}

// forEach runs fn(0) .. fn(n-1) from the run's clients, each taking the
// next index when its previous call returns, and waits for all of them.
func forEach(n int, fn func(i int)) {
	// Map fails only when its pool's context is cancelled; this one has
	// none.
	_, _ = exec.Map(exec.Pool{Workers: serveClients()}, make([]struct{}, n), func(i int, _ struct{}) struct{} {
		fn(i)
		return struct{}{}
	})
}

// coldWarmup is how many cold requests each serve-cold set-up sends.
const coldWarmup = 8

// runServeCold drives the write path: every request is a small grid on a
// trace seed never seen before, so every point misses the store.
func runServeCold(rc *runCtx) (err error) {
	var d *daemon
	var reps []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = openDaemon(filepath.Join(rc.dir, fmt.Sprintf("cold-setup-%d", i)), false); err != nil {
			return err
		}
		// Warm-up requests from every client bring the server, the store
		// and the heap to their working size before anything is timed.
		forEach(coldWarmup, func(int) { rc.check(rc.coldOp(d, nil, nil).err) })
		reps = append(reps, time.Since(t0).Seconds())
	}
	rc.setSetup(reps)

	var sampled sampleSet
	untraced := rc.timed(serveClients(), coldHeapMark, func(int) opResult {
		return rc.coldOp(d, nil, &sampled)
	})
	if err := d.close(); err != nil {
		return err
	}
	rc.setEndToEnd(untraced)
	sampled.check(rc)
	if !rc.opts.trace {
		return nil
	}

	td, err := openDaemon(filepath.Join(rc.dir, "cold-traced"), true)
	if err != nil {
		return err
	}
	defer td.closeInto(&err)
	spans := &serveSpans{}
	traced := rc.timed(serveClients(), coldHeapMark, func(int) opResult {
		return rc.coldOp(td, spans, nil)
	})
	rc.setOverhead(untraced, traced)
	sim, err := td.simSide()
	if err != nil {
		return err
	}
	if err := spans.report(rc, td, sim); err != nil {
		return err
	}
	setExec(rc, sim.stats.Telemetry, traced.wall, runtime.GOMAXPROCS(0))
	// Every coldReplayEvery-th stream is replayed: each replayed trace
	// stays in the never-evicting caches too, so replaying all of them
	// would double the run's memory. core.accounted_ratio compares the
	// replayed streams' spans with their share of the phase's capacity.
	var replay []exchange
	for i := 0; i < len(spans.kept); i += coldReplayEvery {
		replay = append(replay, spans.kept[i])
	}
	probe := &layerProbe{}
	rc.check(replayExchanges(probe, replay))
	capacity := traced.wall * time.Duration(runtime.GOMAXPROCS(0))
	probe.report(rc, time.Duration(float64(capacity)*ratio(float64(len(replay)), float64(len(spans.kept)))))
	return nil
}

// coldReplayEvery is how often a traced cold stream is replayed through
// the layer probe.
const coldReplayEvery = 4

// coldOp is one timed cold request. Every coldSampleEvery-th request
// keeps one line for the core.SimulatePoint check after the phase.
func (rc *runCtx) coldOp(d *daemon, spans *serveSpans, sampled *sampleSet) opResult {
	req := rc.gen.coldRequest()
	exp, err := expect(req)
	if err != nil {
		return opResult{err: err}
	}
	r, err := d.post(req)
	if err != nil {
		return opResult{dur: r.total, err: err}
	}
	lines, err := exp.validate(r)
	if err != nil {
		return opResult{dur: r.total, err: err}
	}
	if spans != nil {
		spans.add(r, exchange{exp: exp, lines: lines})
	}
	if sampled != nil {
		sampled.offer(exp, lines)
	}
	return opResult{dur: r.total, points: len(lines), simInsts: uint64(len(lines) * serveInstructions)}
}

// coldSampleEvery is how often a cold request's line is rechecked.
const coldSampleEvery = 8

// sampleSet keeps one line of every coldSampleEvery-th stream.
type sampleSet struct {
	mu    sync.Mutex
	n     int
	lines [][]byte
	pts   []core.PointOptions
}

func (s *sampleSet) offer(exp expected, lines [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n%coldSampleEvery == 0 {
		i := s.n / coldSampleEvery % len(lines)
		s.lines = append(s.lines, lines[i])
		s.pts = append(s.pts, exp.pts[i])
	}
	s.n++
}

// check recomputes every kept line; each counts as a checked operation.
func (s *sampleSet) check(rc *runCtx) {
	for i, l := range s.lines {
		rc.check(checkLine(l, s.pts[i]))
	}
}

// workingSet is the serve-hot working set with the stream each grid got
// when it was simulated.
type workingSet struct {
	reqs   []serve.SweepRequest
	exps   []expected
	bodies [][]byte
}

// populate simulates every grid of the set on d with the run's clients
// and records each validated stream.
func (rc *runCtx) populate(d *daemon, reqs []serve.SweepRequest) (*workingSet, []exchange, error) {
	ws := &workingSet{reqs: reqs, exps: make([]expected, len(reqs)), bodies: make([][]byte, len(reqs))}
	kept := make([]exchange, len(reqs))
	for i, req := range reqs {
		exp, err := expect(req)
		if err != nil {
			return nil, nil, err
		}
		ws.exps[i] = exp
	}
	forEach(len(reqs), func(i int) {
		r, err := d.post(reqs[i])
		var lines [][]byte
		if err == nil {
			lines, err = ws.exps[i].validate(r)
		}
		rc.check(err)
		ws.bodies[i] = r.body
		kept[i] = exchange{exp: ws.exps[i], lines: lines}
	})
	return ws, kept, nil
}

// runServeHot drives the read path: a warm-restarted server replays a
// working set an earlier server simulated, so every point is a hit.
func runServeHot(rc *runCtx) (err error) {
	var (
		d       *daemon
		ws      *workingSet
		kept    []exchange
		dir     string
		reps    []float64
		popWall time.Duration
		pop     simSide
	)
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		dir = filepath.Join(rc.dir, fmt.Sprintf("hot-setup-%d", i))
		t0 := time.Now()
		pd, err := openDaemon(dir, rc.opts.trace)
		if err != nil {
			return err
		}
		if ws, kept, err = rc.populate(pd, rc.gen.hotWorkingSet()); err != nil {
			pd.close()
			return err
		}
		popWall = time.Since(t0)
		if rc.opts.trace {
			// The populating daemon did the workload's simulation; its
			// telemetry is read before the restart discards it.
			if pop, err = pd.simSide(); err != nil {
				pd.close()
				return err
			}
		}
		if err := pd.close(); err != nil {
			return err
		}
		if d, err = openDaemon(dir, false); err != nil {
			return err
		}
		reps = append(reps, time.Since(t0).Seconds())
	}
	rc.setSetup(reps)
	for i, x := range kept {
		// One line per grid is recomputed from scratch.
		if len(x.lines) > 0 {
			j := i % len(x.lines)
			rc.check(checkLine(x.lines[j], x.exp.pts[j]))
		}
	}

	untraced := rc.timed(serveClients(), hotHeapMark, func(int) opResult {
		return rc.hotOp(d, ws, nil)
	})
	if err := d.close(); err != nil {
		return err
	}
	rc.setEndToEnd(untraced)
	if !rc.opts.trace {
		return nil
	}

	// The traced phase runs on another warm restart of the same store,
	// through the timing wrapper.
	td, err := openDaemon(dir, true)
	if err != nil {
		return err
	}
	defer td.closeInto(&err)
	spans := &serveSpans{}
	traced := rc.timed(serveClients(), hotHeapMark, func(int) opResult {
		return rc.hotOp(td, ws, spans)
	})
	rc.setOverhead(untraced, traced)
	if err := spans.report(rc, td, pop); err != nil {
		return err
	}
	setExec(rc, pop.stats.Telemetry, popWall, runtime.GOMAXPROCS(0))
	probe := &layerProbe{}
	rc.check(replayExchanges(probe, kept))
	probe.report(rc, popWall*time.Duration(runtime.GOMAXPROCS(0)))
	return nil
}

// hotOp replays one grid of the working set and requires the stream to
// be byte-identical to the one recorded when the grid was simulated.
func (rc *runCtx) hotOp(d *daemon, ws *workingSet, spans *serveSpans) opResult {
	i := rc.gen.pick(len(ws.reqs))
	r, err := d.post(ws.reqs[i])
	if err != nil {
		return opResult{dur: r.total, err: err}
	}
	if r.status != http.StatusOK || !bytes.Equal(r.body, ws.bodies[i]) {
		return opResult{dur: r.total, err: fmt.Errorf("hot stream for grid %d differs from the recorded one (status %d)", i, r.status)}
	}
	if spans != nil {
		spans.add(r, exchange{exp: ws.exps[i]})
	}
	return opResult{dur: r.total, points: len(ws.exps[i].keys)}
}
