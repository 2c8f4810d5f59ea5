package serve

// Tests for the /metrics surface and request tracing: exposition
// validity, agreement with /stats, the golden family shape, request-ID
// propagation, and — the invariant everything else rides on —
// telemetry inertness: sweep bodies are byte-identical with
// observability on or off.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/promtext"
)

// scrapeMetrics GETs /metrics and returns the body.
func scrapeMetrics(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promtext.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, promtext.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	return body
}

// metricValue finds one sample line ("name 3" or `name{label="x"} 3`)
// and returns its value.
func metricValue(t *testing.T, exposition []byte, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(exposition), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || line[:i] != sample {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %s has bad value %q", sample, line[i+1:])
		}
		return v
	}
	t.Fatalf("sample %q not found in exposition:\n%s", sample, exposition)
	return 0
}

// TestMetricsAgreeWithStats is the acceptance criterion: after real
// traffic, /metrics is valid exposition whose counters agree with
// /stats — they read the same recorder and store, so any disagreement
// is a double-count.
func TestMetricsAgreeWithStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"useful":[4,8],"benchmarks":["gcc","swim"],"instructions":4000}`
	for i := 0; i < 2; i++ { // second pass hits the cache on all 4 points
		resp := postSweep(t, ts.URL, body)
		if _, done := readStream(t, resp); !done {
			t.Fatal("stream ended without the done trailer")
		}
	}

	exp := scrapeMetrics(t, ts.URL)
	if err := promtext.Lint(exp); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, exp)
	}
	st := getStats(t, ts.URL)

	checks := []struct {
		sample string
		want   float64
	}{
		{"sweep_requests_total", float64(st.Requests)},
		{"sweep_requests_rejected_total", float64(st.Rejected)},
		{"sweep_point_cache_hits_total", float64(st.CacheHits)},
		{"sweep_point_cache_misses_total", float64(st.CacheMisses)},
		{"sweep_points_done_total", float64(st.PointsDone)},
		{"sweep_points_dropped_total", float64(st.PointsDropped)},
		{"sweep_dedup_joins_total", float64(st.DedupJoins)},
		{"sweep_client_disconnects_total", float64(st.Disconnects)},
		{"store_mem_entries", float64(st.CacheSize)},
		{"store_mem_bytes", float64(st.CacheBytes)},
		{"store_evictions_total", float64(st.CacheEvictions)},
		{"sweep_queue_depth", float64(st.QueueDepth)},
		{"sweep_running_points", float64(st.RunningPoints)},
		{"sweep_draining", 0},
	}
	for _, c := range checks {
		if got := metricValue(t, exp, c.sample); got != c.want {
			t.Errorf("%s = %v, /stats says %v", c.sample, got, c.want)
		}
	}
	if st.Requests != 2 || st.CacheHits != 4 || st.CacheMisses != 4 {
		t.Errorf("unexpected traffic shape: requests=%d hits=%d misses=%d",
			st.Requests, st.CacheHits, st.CacheMisses)
	}
	if got := metricValue(t, exp, "sweep_request_seconds_count"); got != 2 {
		t.Errorf("sweep_request_seconds_count = %v, want 2 (one per sweep)", got)
	}
	if got := metricValue(t, exp, "sweep_stream_seconds_count"); got != 2 {
		t.Errorf("sweep_stream_seconds_count = %v, want 2", got)
	}
	if got := metricValue(t, exp, "sweep_queue_wait_seconds_count"); got != 4 {
		t.Errorf("sweep_queue_wait_seconds_count = %v, want 4 (one per simulation)", got)
	}
	if got := metricValue(t, exp, "sweep_http_requests_inflight"); got != 1 {
		t.Errorf("sweep_http_requests_inflight = %v, want 1 (the scrape itself)", got)
	}
	if !strings.Contains(string(exp), `build_info{code_version="`) {
		t.Error("build_info carries no code_version label")
	}
}

// TestMetricsGoldenShape pins the exposition's family shape — names,
// HELP text, TYPE — against a golden file. Values are traffic-dependent
// and excluded. Refresh with UPDATE_GOLDEN=1 go test ./internal/serve
// -run GoldenShape.
func TestMetricsGoldenShape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	exp := scrapeMetrics(t, ts.URL)

	var shape strings.Builder
	for _, line := range strings.Split(string(exp), "\n") {
		if strings.HasPrefix(line, "#") {
			shape.WriteString(line)
			shape.WriteByte('\n')
		}
	}
	golden := filepath.Join("testdata", "metrics_shape.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(shape.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if shape.String() != string(want) {
		t.Errorf("metrics shape drifted from %s:\n--- got ---\n%s--- want ---\n%s",
			golden, shape.String(), want)
	}
}

// TestMetricsDisabled: DisableMetrics serves 404 on /metrics and the
// daemon keeps working; tracing (request IDs) stays on.
func TestMetricsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, DisableMetrics: true})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with metrics disabled: status = %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("request ID missing with metrics disabled; tracing must stay on")
	}
	sweep := postSweep(t, ts.URL, `{"useful":[8],"benchmarks":["gcc"],"instructions":4000}`)
	if lines, done := readStream(t, sweep); !done || len(lines) != 1 {
		t.Fatalf("sweep with metrics disabled: done=%v points=%d", done, len(lines))
	}
}

// rawSweepBody POSTs one sweep and returns the raw response body bytes.
func rawSweepBody(t *testing.T, url, body, requestID string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d, want 200", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// syncWriter makes a bytes.Buffer safe for the slog handler, which is
// written from both the middleware and scheduler worker goroutines.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestTelemetryInertness is the regression test the tentpole demands:
// sweep NDJSON bodies are byte-identical whether observability is fully
// on (metrics, debug logging, slow-request threshold, inbound request
// ID) or fully off. Telemetry observes the serving path; it never
// shapes it.
func TestTelemetryInertness(t *testing.T) {
	body := `{"useful_min":4,"useful_max":8,"useful_step":2,"benchmarks":["gcc","mcf"],"instructions":4000}`
	version := DefaultCodeVersion()

	var logs syncWriter
	loud := slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, tsOn := newTestServer(t, Config{
		Workers:     2,
		CodeVersion: version,
		SlowRequest: time.Nanosecond, // every request logs as slow
		Log:         loud,
	})
	_, tsOff := newTestServer(t, Config{
		Workers:        1,
		CodeVersion:    version,
		DisableMetrics: true,
	})

	on := rawSweepBody(t, tsOn.URL, body, "inertness-test-id")
	scrapeMetrics(t, tsOn.URL) // a scrape between sweeps must not perturb anything
	onAgain := rawSweepBody(t, tsOn.URL, body, "")
	off := rawSweepBody(t, tsOff.URL, body, "")

	if !bytes.Equal(on, off) {
		t.Errorf("sweep body differs with observability on vs off:\n--- on ---\n%s--- off ---\n%s", on, off)
	}
	if !bytes.Equal(on, onAgain) {
		t.Errorf("sweep body differs between cold and cached pass:\n--- first ---\n%s--- second ---\n%s", on, onAgain)
	}
	if !strings.Contains(logs.String(), "slow request") {
		t.Error("no slow-request log despite a 1ns threshold")
	}
	if !strings.Contains(logs.String(), "inertness-test-id") {
		t.Error("inbound request ID never reached the access log")
	}
	exp := scrapeMetrics(t, tsOn.URL)
	if got := metricValue(t, exp, "sweep_slow_requests_total"); got < 2 {
		t.Errorf("sweep_slow_requests_total = %v, want >= 2", got)
	}
}

// TestRequestIDLifecycle: generated when absent, echoed when valid,
// replaced when hostile.
func TestRequestIDLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gen := resp.Header.Get("X-Request-Id")
	if len(gen) != 16 {
		t.Errorf("generated request ID %q, want 16 hex chars", gen)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-supplied.id:7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied.id:7" {
		t.Errorf("valid inbound ID not echoed: got %q", got)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "evil=\"injection\" level")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); strings.Contains(got, "evil") || len(got) != 16 {
		t.Errorf("hostile inbound ID not replaced: got %q", got)
	}
}

// TestRejectReasonsCounted: each reject path lands in its labelled
// cell, and the total matches /stats.
func TestRejectReasonsCounted(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueLimit: 2})

	resp := postSweep(t, ts.URL, `{"useful":[2,3,4,5,6],"benchmarks":["gcc"],"instructions":4000}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	resp = postSweep(t, ts.URL, `{`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}
	srv.BeginDrain()
	resp = postSweep(t, ts.URL, `{"useful":[8],"benchmarks":["gcc"],"instructions":4000}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}

	exp := scrapeMetrics(t, ts.URL)
	if err := promtext.Lint(exp); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, reason := range []string{"queue_full", "bad_request", "draining"} {
		if got := metricValue(t, exp, `sweep_rejects_total{reason="`+reason+`"}`); got != 1 {
			t.Errorf(`sweep_rejects_total{reason=%q} = %v, want 1`, reason, got)
		}
	}
	st := getStats(t, ts.URL)
	if st.Rejected != 3 {
		t.Errorf("stats rejected = %d, want 3", st.Rejected)
	}
	if got := metricValue(t, exp, "sweep_requests_rejected_total"); got != 3 {
		t.Errorf("sweep_requests_rejected_total = %v, want 3", got)
	}
	if got := metricValue(t, exp, "sweep_draining"); got != 1 {
		t.Errorf("sweep_draining = %v, want 1 after BeginDrain", got)
	}
}

// directInstruments are the /metrics families with no /stats twin: the
// serving-layer instruments metrics.go registers directly.
var directInstruments = map[string]bool{
	"build_info":                   true,
	"sweep_http_requests_inflight": true,
	"sweep_queue_wait_seconds":     true,
	"sweep_rejects_total":          true,
	"sweep_request_seconds":        true,
	"sweep_slow_requests_total":    true,
	"sweep_stream_bytes_total":     true,
	"sweep_stream_seconds":         true,
}

// metricJSONNames maps each family a Stats field declares to that
// field's /stats JSON name.
func metricJSONNames() map[string]string {
	out := map[string]string{}
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		family, _, _ := strings.Cut(tag, ",")
		jsonName, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		out[family] = jsonName
	}
	return out
}

// TestStatsMetricsOneSource: after traffic on a durable store — cold
// and cached sweeps, a GET /results pull, a drain and the reject it
// causes — every /metrics family other than the direct instruments
// equals the /stats field that declares it, and every declared family
// is rendered. Uptime may differ only by the time between the requests.
func TestStatsMetricsOneSource(t *testing.T) {
	d := openTestStore(t, t.TempDir(), "v-one-source")
	t.Cleanup(func() { d.Close() })
	srv, ts := newTestServer(t, Config{Workers: 2, CodeVersion: "v-one-source", Store: d})

	body := `{"useful":[4,8],"benchmarks":["gcc","swim"],"instructions":4000}`
	for i := 0; i < 2; i++ { // the second pass is all cache hits
		if _, done := readStream(t, postSweep(t, ts.URL, body)); !done {
			t.Fatal("stream ended without the done trailer")
		}
	}
	if records, _ := pullResults(t, ts.URL, 0); len(records) != 4 {
		t.Fatalf("GET /results streamed %d records, want 4", len(records))
	}
	srv.BeginDrain()
	resp := postSweep(t, ts.URL, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep while draining: status %d, want 503", resp.StatusCode)
	}

	before := time.Now()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	exp := scrapeMetrics(t, ts.URL)
	elapsed := time.Since(before).Seconds()
	if err := promtext.Lint(exp); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}

	declared := metricJSONNames()
	rendered := map[string]bool{}
	for _, line := range strings.Split(string(exp), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] != "#" || fields[1] != "TYPE" || directInstruments[fields[2]] {
			continue
		}
		family := fields[2]
		rendered[family] = true
		jsonName, ok := declared[family]
		if !ok {
			t.Errorf("/metrics family %s is declared by no Stats field", family)
			continue
		}
		var want float64
		switch v := stats[jsonName].(type) {
		case float64:
			want = v
		case bool:
			if v {
				want = 1
			}
		default:
			t.Errorf("/stats has no numeric %q for %s (got %v)", jsonName, family, stats[jsonName])
			continue
		}
		got := metricValue(t, exp, family)
		if family == "sweep_uptime_seconds" {
			if got < want || got > want+elapsed {
				t.Errorf("%s = %v, /stats says %v; want within %.6fs after it", family, got, want, elapsed)
			}
			continue
		}
		if got != want {
			t.Errorf("%s = %v, /stats %s says %v", family, got, jsonName, want)
		}
	}
	for family := range declared {
		if !rendered[family] {
			t.Errorf("Stats declares %s but /metrics does not render it", family)
		}
	}

	// The traffic moved the families this test exists for.
	for _, c := range []struct {
		sample string
		want   float64
	}{
		{"sweep_simulations_total", 4},
		{"sweep_delta_pulls_total", 1},
		{"sweep_draining", 1},
		{"sweep_requests_rejected_total", 1},
		{"store_cursor", 4},
	} {
		if got := metricValue(t, exp, c.sample); got != c.want {
			t.Errorf("%s = %v, want %v", c.sample, got, c.want)
		}
	}
}

// TestScrapeQueueGaugesConsistent: while concurrent cold sweeps move
// points through the queue, every scrape's inflight gauge equals its
// queue depth plus running points — all three come from one read of the
// scheduler, so a scrape can never split across a dispatch.
func TestScrapeQueueGaugesConsistent(t *testing.T) {
	const clients, requests = 3, 3
	_, ts := newTestServer(t, Config{Workers: 1})

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				body := fmt.Sprintf(`{"useful":[4,6,8],"benchmarks":["gcc"],"instructions":2000,"seed":%d}`, 100+c*requests+r)
				resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if _, done, err := readStreamErr(resp); err != nil || !done {
					t.Errorf("client %d: done=%v err=%v", c, done, err)
					return
				}
			}
		}()
	}
	sweepsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(sweepsDone)
	}()

	scrapes, busy := 0, 0
	for finished := false; !finished; {
		select {
		case <-sweepsDone:
			finished = true // one last scrape on the quiesced daemon
		default:
		}
		exp := scrapeMetrics(t, ts.URL)
		queued := metricValue(t, exp, "sweep_queue_depth")
		running := metricValue(t, exp, "sweep_running_points")
		inflight := metricValue(t, exp, "sweep_inflight_points")
		if inflight != queued+running {
			t.Fatalf("scrape %d: sweep_inflight_points = %v, but queue depth %v + running %v = %v",
				scrapes, inflight, queued, running, queued+running)
		}
		scrapes++
		if inflight > 0 {
			busy++
		}
		if finished && inflight != 0 {
			t.Errorf("quiesced daemon still reports %v inflight points", inflight)
		}
	}
	t.Logf("%d scrapes, %d with points in flight", scrapes, busy)
}
