package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/clitest"
)

// newTestServer starts a Server over httptest and tears both down with
// the test.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postSweep sends one sweep request and returns the response.
func postSweep(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	return resp
}

// readStreamErr consumes an NDJSON sweep response: per-point lines keyed
// by their content address, plus whether the done trailer arrived. It is
// goroutine-safe (no testing.T), for use from concurrent clients.
func readStreamErr(resp *http.Response) (lines map[string]string, done bool, err error) {
	defer resp.Body.Close()
	lines = map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var probe struct {
			Key   string `json:"key"`
			Error string `json:"error"`
			Done  bool   `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			return nil, false, fmt.Errorf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			done = true
			continue
		}
		if probe.Error != "" {
			return nil, false, fmt.Errorf("stream error line: %s", line)
		}
		if _, dup := lines[probe.Key]; dup {
			return nil, false, fmt.Errorf("key %s streamed twice", probe.Key)
		}
		lines[probe.Key] = line
	}
	return lines, done, sc.Err()
}

// readStream is readStreamErr for direct (non-goroutine) test use.
func readStream(t *testing.T, resp *http.Response) (map[string]string, bool) {
	t.Helper()
	lines, done, err := readStreamErr(resp)
	if err != nil {
		t.Fatal(err)
	}
	return lines, done
}

func getStats(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	return st
}

func TestSweepStreamsEveryPoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postSweep(t, ts.URL, `{"useful":[4,8],"benchmarks":["gcc","swim"],"instructions":4000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	lines, done := readStream(t, resp)
	if !done {
		t.Fatal("stream ended without the done trailer")
	}
	if len(lines) != 4 {
		t.Fatalf("got %d points, want 4 (2 depths x 2 benchmarks)", len(lines))
	}
	for key, line := range lines {
		var pr PointResult
		if err := json.Unmarshal([]byte(line), &pr); err != nil {
			t.Fatalf("bad point line: %v", err)
		}
		if pr.Key != key || pr.IPC <= 0 || pr.BIPS <= 0 || pr.FreqMHz <= 0 {
			t.Fatalf("implausible point result: %s", line)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxPointsPerRequest: 8})
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty grid", `{}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"useful":[8],"bogus":1}`, http.StatusBadRequest},
		{"unknown benchmark", `{"useful":[8],"benchmarks":["nope"]}`, http.StatusBadRequest},
		{"unknown machine", `{"useful":[8],"machine":"quantum"}`, http.StatusBadRequest},
		{"bad range", `{"useful_min":8,"useful_max":4}`, http.StatusBadRequest},
		{"range step below one ULP", `{"useful_min":1,"useful_max":64,"useful_step":5e-324}`, http.StatusBadRequest},
		{"range max beyond point bound", `{"useful_min":1,"useful_max":1e18}`, http.StatusBadRequest},
		{"range expands past limit", `{"useful_min":1,"useful_max":64,"useful_step":1e-9}`, http.StatusBadRequest},
		{"stages without window", `{"useful":[8],"window_stages":[4]}`, http.StatusBadRequest},
		{"too many points", `{"useful":[2,3,4,5,6],"benchmarks":["gcc","swim"]}`, http.StatusBadRequest},
		{"instructions over limit", `{"useful":[8],"instructions":2000000}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postSweep(t, ts.URL, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}

	resp, err := http.Get(ts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep status = %d, want 405", resp.StatusCode)
	}
}

func TestAdmissionBoundsQueueDepth(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueLimit: 2})
	// Five fresh points cannot fit a two-point queue no matter how fast
	// the dispatcher drains: admission counts them atomically.
	resp := postSweep(t, ts.URL, `{"useful":[2,3,4,5,6],"benchmarks":["gcc"],"instructions":4000}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if st := getStats(t, ts.URL); st.Rejected != 1 || st.QueueDepth != 0 {
		t.Fatalf("stats after rejection: rejected=%d queue=%d, want 1, 0", st.Rejected, st.QueueDepth)
	}
}

// TestConcurrentClientsShareWork is the overlap-determinism contract: N
// concurrent clients asking the same grid must each get byte-identical
// per-point results, the grid must simulate exactly once, and every
// re-request of a distinct point must count as a cache hit.
func TestConcurrentClientsShareWork(t *testing.T) {
	const clients, points = 6, 3
	srv, ts := newTestServer(t, Config{Workers: 2})
	body := `{"useful":[4,6,8],"benchmarks":["gcc"],"instructions":5000}`

	results := make([]map[string]string, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				t.Errorf("client %d: status %d", c, resp.StatusCode)
				return
			}
			lines, done, err := readStreamErr(resp)
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			if !done {
				t.Errorf("client %d: no done trailer", c)
			}
			results[c] = lines
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for c := 1; c < clients; c++ {
		if len(results[c]) != points {
			t.Fatalf("client %d got %d points, want %d", c, len(results[c]), points)
		}
		for key, line := range results[0] {
			if other, ok := results[c][key]; !ok {
				t.Fatalf("client %d is missing point %s", c, key)
			} else if other != line {
				t.Fatalf("client %d got different bytes for %s:\n%s\nvs\n%s", c, key, line, other)
			}
		}
	}

	st := srv.StatsSnapshot()
	if st.CacheMisses != points {
		t.Errorf("cache misses = %d, want %d (each distinct point misses once)", st.CacheMisses, points)
	}
	if wantHits := int64((clients - 1) * points); st.CacheHits != wantHits {
		t.Errorf("cache hits = %d, want %d (every overlapping point re-request)", st.CacheHits, wantHits)
	}
	if st.PointsDone != points {
		t.Errorf("points done = %d, want %d (singleflight: one simulation per point)", st.PointsDone, points)
	}
	if st.CacheSize != points {
		t.Errorf("cache size = %d, want %d", st.CacheSize, points)
	}
}

// TestDisconnectDropsQueuedPoints pins the leak contract: a client that
// goes away mid-stream releases its queued points, which must never
// simulate or land in the cache.
func TestDisconnectDropsQueuedPoints(t *testing.T) {
	const heavyPoints, abandonedPoints = 2, 3
	srv, ts := newTestServer(t, Config{Workers: 1})

	// A heavy request keeps the single worker busy...
	type streamResult struct {
		lines map[string]string
		err   error
	}
	heavy := make(chan streamResult, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/sweep", "application/json",
			strings.NewReader(`{"useful":[6,8],"benchmarks":["gcc"],"instructions":400000,"seed":7}`))
		if err != nil {
			heavy <- streamResult{err: err}
			return
		}
		lines, _, err := readStreamErr(resp)
		heavy <- streamResult{lines: lines, err: err}
	}()

	// ...wait until its batch is actually running...
	if !clitest.WaitUntil(clitest.DefaultWait, func() bool {
		return srv.StatsSnapshot().RunningPoints > 0
	}) {
		t.Fatal("heavy batch never started")
	}

	// ...then queue a second grid behind it and hang up without reading a
	// single line. The response headers arrive immediately (admission
	// happened) but every point line is still pending, so the body stays
	// open until the context is cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep",
		strings.NewReader(`{"useful":[10,12,14],"benchmarks":["swim"],"instructions":400000,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	abandoned := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resp = nil
		}
		abandoned <- resp
	}()
	if !clitest.WaitUntil(clitest.DefaultWait, func() bool {
		st := srv.StatsSnapshot()
		return st.QueueDepth+st.RunningPoints >= heavyPoints+abandonedPoints
	}) {
		t.Fatalf("abandoned points never admitted: %+v", srv.StatsSnapshot())
	}
	cancel()
	if resp := <-abandoned; resp != nil {
		resp.Body.Close()
	}

	if hr := <-heavy; hr.err != nil {
		t.Fatalf("heavy client: %v", hr.err)
	} else if len(hr.lines) != heavyPoints {
		t.Fatalf("heavy client got %d points, want %d", len(hr.lines), heavyPoints)
	}
	// The abandoned points must drain away without simulating.
	if !clitest.WaitUntil(clitest.DefaultWait, func() bool {
		return srv.StatsSnapshot().InflightPoints == 0
	}) {
		t.Fatalf("queued points leaked: %+v", srv.StatsSnapshot())
	}
	st := srv.StatsSnapshot()
	if st.PointsDropped != abandonedPoints {
		t.Fatalf("points dropped = %d, want %d", st.PointsDropped, abandonedPoints)
	}
	if st.PointsDone != heavyPoints || st.CacheSize != heavyPoints {
		t.Fatalf("abandoned points leaked into work or cache: %+v", st)
	}
	if st.Disconnects != 1 {
		t.Fatalf("client disconnects = %d, want 1", st.Disconnects)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v, want 200 ok", resp.StatusCode, h)
	}

	srv.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = Health{}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	// The body must say so too — a load balancer's health checker often
	// reads the status field, not just the code.
	if h.Status != "draining" {
		t.Fatalf("draining healthz body status = %q, want draining", h.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz without Retry-After")
	}
	sweep := postSweep(t, ts.URL, `{"useful":[8],"benchmarks":["gcc"],"instructions":4000}`)
	sweep.Body.Close()
	if sweep.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining sweep status = %d, want 503", sweep.StatusCode)
	}
}

// TestCacheEvictionBoundsMemory pins the LRU contract: the result cache
// never holds more than CacheLimit lines, evictions are counted, and an
// evicted point re-simulates on the next request instead of erroring.
func TestCacheEvictionBoundsMemory(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, CacheLimit: 2})

	resp := postSweep(t, ts.URL, `{"useful":[4,6,8],"benchmarks":["gcc"],"instructions":4000}`)
	lines, _ := readStream(t, resp)
	if len(lines) != 3 {
		t.Fatalf("got %d points, want 3", len(lines))
	}
	st := srv.StatsSnapshot()
	if st.CacheSize != 2 {
		t.Fatalf("cache size = %d, want 2 (CacheLimit)", st.CacheSize)
	}
	if st.CacheEvictions != 1 {
		t.Fatalf("cache evictions = %d, want 1 (3 results into a 2-entry cache)", st.CacheEvictions)
	}
	if st.CacheBytes <= 0 {
		t.Fatalf("cache bytes = %d, want > 0 while entries are resident", st.CacheBytes)
	}

	// Re-request the full grid: the evicted point must simulate again and
	// the response must be byte-identical to the first pass.
	resp = postSweep(t, ts.URL, `{"useful":[4,6,8],"benchmarks":["gcc"],"instructions":4000}`)
	again, _ := readStream(t, resp)
	if fmt.Sprint(lines) != fmt.Sprint(again) {
		t.Fatal("post-eviction re-request differs from the original")
	}
	after := srv.StatsSnapshot()
	if after.PointsDone != st.PointsDone+1 {
		t.Fatalf("points done %d -> %d, want exactly one re-simulation of the evicted point",
			st.PointsDone, after.PointsDone)
	}
	if after.CacheSize != 2 {
		t.Fatalf("cache size = %d after re-request, want 2", after.CacheSize)
	}
}

// TestAdmitAfterCloseFailsFast pins the shutdown race: an admit that
// loses the race against Close must be refused (ErrStopped), never
// enqueued behind a dispatcher that has already drained for the last
// time — that would strand the caller on a done channel forever.
func TestAdmitAfterCloseFailsFast(t *testing.T) {
	srv := New(Config{Workers: 1})
	req := SweepRequest{Useful: []float64{8}, Benchmarks: []string{"gcc"}, Instructions: 4000}
	pts, keys, err := req.Points(srv.cfg.CodeVersion, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, _, err := srv.sched.admit(pts, keys, "test-origin"); !errors.Is(err, ErrStopped) {
		t.Fatalf("admit after close: err = %v, want ErrStopped", err)
	}
}

// TestRepeatRequestIsFullyCached pins the content-addressed cache: a
// byte-identical re-request must serve entirely from cache with no new
// simulations, and the response body must match byte-for-byte.
func TestRepeatRequestIsFullyCached(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	body := `{"useful_min":4,"useful_max":8,"useful_step":2,"benchmarks":["mcf"],"instructions":4000}`

	first := postSweep(t, ts.URL, body)
	firstLines, _ := readStream(t, first)
	simsAfterFirst := srv.StatsSnapshot().PointsDone

	second := postSweep(t, ts.URL, body)
	secondLines, _ := readStream(t, second)

	if fmt.Sprint(firstLines) != fmt.Sprint(secondLines) {
		t.Fatal("cached response differs from the original")
	}
	st := srv.StatsSnapshot()
	if st.PointsDone != simsAfterFirst {
		t.Fatalf("re-request simulated: points done %d -> %d", simsAfterFirst, st.PointsDone)
	}
	if st.CacheHits != int64(len(firstLines)) {
		t.Fatalf("cache hits = %d, want %d", st.CacheHits, len(firstLines))
	}
}
