package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// flushRecorder is a ResponseWriter that records the body and, at every
// Flush, the body written so far.
type flushRecorder struct {
	header http.Header

	mu      sync.Mutex
	body    bytes.Buffer
	flushed []string
	flushes chan struct{}
}

func newFlushRecorder() *flushRecorder {
	return &flushRecorder{header: http.Header{}, flushes: make(chan struct{}, 16)}
}

func (w *flushRecorder) Header() http.Header { return w.header }
func (w *flushRecorder) WriteHeader(int)     {}

func (w *flushRecorder) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}

func (w *flushRecorder) Flush() {
	w.mu.Lock()
	w.flushed = append(w.flushed, w.body.String())
	w.mu.Unlock()
	w.flushes <- struct{}{}
}

func (w *flushRecorder) snapshot() (string, []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.String(), append([]string(nil), w.flushed...)
}

// TestSweepFlushesOnlyBeforeAWait pins the streaming contract of
// /sweep: lines that are already resolved are written without a flush,
// every written line is flushed before the stream blocks on a pending
// job, and nothing is flushed after the last line. The scheduler has no
// dispatcher, so the test decides when the pending job completes.
func TestSweepFlushesOnlyBeforeAWait(t *testing.T) {
	srv := New(Config{Workers: 1, CodeVersion: edgeVersion})
	srv.sched.close()
	sched := newEdgeScheduler(8)
	srv.sched = sched

	benches := []string{"gcc", "swim", "mcf"}
	_, keys := edgePoints(t, benches, []float64{8})
	hit0, hit1 := `{"key":"hit-0"}`+"\n", `{"key":"hit-1"}`+"\n"
	sched.cache.Put(keys[0], []byte(hit0))
	sched.cache.Put(keys[1], []byte(hit1))
	body := `{"useful":[8],"benchmarks":["gcc","swim","mcf"],"instructions":2000,"seed":99}`

	sweep := func() (*flushRecorder, chan struct{}) {
		rec := newFlushRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handleSweep(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)))
		}()
		return rec, done
	}
	waitFor := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}

	// hit, hit, pending: both hit lines reach the client before the wait.
	rec, done := sweep()
	waitFor(rec.flushes, "the flush before the pending job")
	if got, _ := rec.snapshot(); got != hit0+hit1 {
		t.Fatalf("body at the flush before the wait = %q, want both hit lines %q", got, hit0+hit1)
	}
	select {
	case <-done:
		t.Fatal("handler returned before its pending job completed")
	default:
	}
	sched.runBatch(sched.takeBatch())
	waitFor(done, "the handler to finish")
	line2, ok := sched.cache.Get(keys[2])
	if !ok {
		t.Fatal("the simulated point was not stored")
	}
	trailer := `{"done":true,"points":3}` + "\n"
	want := hit0 + hit1 + string(line2) + trailer
	got, flushed := rec.snapshot()
	if got != want {
		t.Fatalf("body = %q, want %q", got, want)
	}
	if len(flushed) != 1 {
		t.Fatalf("flushed %d times (%q), want once, before the wait", len(flushed), flushed)
	}

	// All resolved: the same body, and no flush at all.
	rec, done = sweep()
	waitFor(done, "the cached sweep")
	got, flushed = rec.snapshot()
	if got != want || len(flushed) != 0 {
		t.Fatalf("cached sweep: body %q with %d flushes, want %q with none", got, len(flushed), want)
	}
}
