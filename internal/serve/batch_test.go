package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
)

// postSweepBody sends one sweep request and returns the raw response
// body: the byte-identity oracle reads the stream verbatim, newlines,
// field order and trailer included.
func postSweepBody(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return raw
}

// TestBatchedSweepBytesIdentical is the serving layer's batch oracle:
// a multi-depth, multi-benchmark sweep must stream exactly the bytes
// built here point by point from core.SimulatePoint — each line the
// marshaled PointResult plus its newline, then the done trailer — and
// keep the cache economy of one simulation per distinct point. The grid
// shape (5 depths x 2 benchmarks) is exactly the case the grouped
// dispatch accelerates, so any accounting that leaked into the wire
// format would show up here.
func TestBatchedSweepBytesIdentical(t *testing.T) {
	const body = `{"useful":[2,4,6,8,16],"benchmarks":["gcc","swim"],"instructions":4000}`

	srv, ts := newTestServer(t, Config{Workers: 2})
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	pts, keys, err := req.Points(srv.cfg.CodeVersion, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i, o := range pts {
		res, err := core.SimulatePoint(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(newPointResult(keys[i], o, res))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	fmt.Fprintf(&want, "{\"done\":true,\"points\":%d}\n", len(pts))

	got := postSweepBody(t, ts.URL, body)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("batched sweep body differs from the per-point oracle:\nbatched: %s\noracle:  %s", got, want.Bytes())
	}

	// A repeat of the same request must be a pure cache replay — same
	// bytes again, every point simulated exactly once, the second pass
	// all hits.
	if again := postSweepBody(t, ts.URL, body); !bytes.Equal(again, got) {
		t.Fatal("cached replay differs from the first stream")
	}
	st := getStats(t, ts.URL)
	if st.CacheMisses != 10 || st.PointsDone != 10 {
		t.Errorf("cache_misses = %d, points_done = %d; want 10, 10 (5 depths x 2 benchmarks, simulated once)", st.CacheMisses, st.PointsDone)
	}
	if st.CacheHits != 10 {
		t.Errorf("cache_hits = %d, want 10 (the full repeat request)", st.CacheHits)
	}
}

// TestGroupedBatchHandlesMixedTraces drives the grouped dispatch with
// points that must NOT share a group — different instruction counts and
// different seeds over one benchmark — plus a depth pair that must. It
// guards the grouping key: a wrong key either panics SimulateBatch
// (mixed traces in one batch) or silently merges distinct traces.
func TestGroupedBatchHandlesMixedTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, req := range []string{
		`{"useful":[6,8],"benchmarks":["gcc"],"instructions":4000}`,
		`{"useful":[6,8],"benchmarks":["gcc"],"instructions":6000}`,
		`{"useful":[6,8],"benchmarks":["gcc"],"instructions":4000,"seed":7}`,
	} {
		resp := postSweep(t, ts.URL, req)
		lines, done := readStream(t, resp)
		if !done || len(lines) != 2 {
			t.Fatalf("request %s: got %d lines (done=%v), want 2", req, len(lines), done)
		}
	}
}
