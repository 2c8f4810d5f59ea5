package pipeline

import (
	"sync"
	"testing"
)

// TestConcurrentRunsShareTrace pins the concurrency contract the sweep
// engine depends on: multiple RunWith calls may execute simultaneously against
// the same *trace.Trace and must produce exactly the stats a serial run
// does. Run under -race this doubles as a regression test for any
// simulator state that leaks across goroutines or any write to the shared
// trace.
func TestConcurrentRunsShareTrace(t *testing.T) {
	tr := getTrace(t, "176.gcc", 40000)
	params := []Params{paramsAt(4), paramsAt(6), paramsAt(8), paramsAt(6)}

	want := make([]Stats, len(params))
	for i, p := range params {
		want[i] = RunWith(p, tr, nil)
	}

	got := make([]Stats, len(params))
	var wg sync.WaitGroup
	for i, p := range params {
		wg.Add(1)
		go func(i int, p Params) {
			defer wg.Done()
			got[i] = RunWith(p, tr, nil)
		}(i, p)
	}
	wg.Wait()

	for i := range params {
		if got[i] != want[i] {
			t.Errorf("concurrent run %d differs from serial: %+v vs %+v", i, got[i], want[i])
		}
	}
}
