package main

import (
	"math"
	"strings"
	"testing"
)

const sampleOld = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRunOutOfOrder/176.gcc         	       2	  23148238 ns/op	         0.6731 IPC	 4126292 B/op	  128518 allocs/op
BenchmarkRunOutOfOrder/171.swim        	       2	  16899718 ns/op	         1.277 IPC	 2212872 B/op	   63052 allocs/op
BenchmarkFigure5-8                     	       1	2669842027 ns/op	16111891 allocs/op
PASS
`

const sampleNew = `BenchmarkRunOutOfOrder/176.gcc         	      10	   7413791 ns/op	         0.6731 IPC	      13 B/op	       0 allocs/op
BenchmarkRunOutOfOrder/171.swim        	      10	   7535064 ns/op	         1.277 IPC	      13 B/op	       0 allocs/op
BenchmarkExtra 	 5 	 100 ns/op 	 0 allocs/op
`

func TestParseBenchText(t *testing.T) {
	got, err := parseInput([]byte(sampleOld))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3", len(got))
	}
	gcc := got[0]
	if gcc.Name != "BenchmarkRunOutOfOrder/176.gcc" ||
		gcc.NsPerOp != 23148238 || gcc.AllocsPerOp != 128518 || gcc.BytesPerOp != 4126292 {
		t.Fatalf("gcc parsed as %+v", gcc)
	}
	if got[2].Name != "BenchmarkFigure5" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", got[2].Name)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	parsed, err := parseInput([]byte(sampleOld))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := record(parsed)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseInput(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(parsed) {
		t.Fatalf("round trip lost results: %d != %d", len(back), len(parsed))
	}
	byName := map[string]Result{}
	for _, r := range back {
		byName[r.Name] = r
	}
	for _, want := range parsed {
		if byName[want.Name] != want {
			t.Fatalf("round trip changed %q: %+v != %+v", want.Name, byName[want.Name], want)
		}
	}
}

func TestCompareAndThreshold(t *testing.T) {
	old, err := parseInput([]byte(sampleOld))
	if err != nil {
		t.Fatal(err)
	}
	new, err := parseInput([]byte(sampleNew))
	if err != nil {
		t.Fatal(err)
	}
	deltas, onlyOld, onlyNew := compare(old, new)
	if len(deltas) != 2 {
		t.Fatalf("matched %d benchmarks, want 2", len(deltas))
	}
	if len(onlyOld) != 1 || onlyOld[0] != "BenchmarkFigure5" {
		t.Fatalf("onlyOld = %v", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != "BenchmarkExtra" {
		t.Fatalf("onlyNew = %v", onlyNew)
	}
	// Everything improved: no regression at any threshold.
	var w strings.Builder
	if report(&w, deltas, onlyOld, onlyNew, 0) {
		t.Fatalf("improvement flagged as regression:\n%s", w.String())
	}

	// Reverse direction: the ~3x slowdown must trip a 10%% threshold.
	rev, _, _ := compare(new, old)
	w.Reset()
	if !report(&w, rev, nil, nil, 10) {
		t.Fatalf("3x slowdown not flagged:\n%s", w.String())
	}
	if !strings.Contains(w.String(), "!") {
		t.Fatalf("regression marker missing:\n%s", w.String())
	}
}

// TestBytesPerOpGated: B/op is gated under the same threshold as ns/op
// and allocs/op, and the report prints its old, new and delta columns.
func TestBytesPerOpGated(t *testing.T) {
	old := []Result{{Name: "BenchmarkFigure5", NsPerOp: 1000, BytesPerOp: 1000000, AllocsPerOp: 380}}
	grown := []Result{{Name: "BenchmarkFigure5", NsPerOp: 1000, BytesPerOp: 17700000, AllocsPerOp: 380}}

	deltas, _, _ := compare(old, grown)
	var w strings.Builder
	if !report(&w, deltas, nil, nil, 50) {
		t.Fatalf("B/op growth alone not flagged:\n%s", w.String())
	}
	header, row, _ := strings.Cut(w.String(), "\n")
	if !strings.Contains(header, "old B/op") || !strings.Contains(header, "new B/op") {
		t.Fatalf("report header lacks B/op columns: %q", header)
	}
	for _, want := range []string{"1000000", "17700000", "+1670.0% !"} {
		if !strings.Contains(row, want) {
			t.Errorf("report row lacks %q: %q", want, row)
		}
	}

	// The same change read the other way is an improvement, not a regression.
	deltas, _, _ = compare(grown, old)
	w.Reset()
	if report(&w, deltas, nil, nil, 50) {
		t.Fatalf("B/op drop flagged as regression:\n%s", w.String())
	}
	// Within the threshold passes.
	within := []Result{{Name: "BenchmarkFigure5", NsPerOp: 1000, BytesPerOp: 1400000, AllocsPerOp: 380}}
	deltas, _, _ = compare(old, within)
	w.Reset()
	if report(&w, deltas, nil, nil, 50) {
		t.Fatalf("+40%% B/op flagged at a 50%% threshold:\n%s", w.String())
	}
}

func TestPctEdgeCases(t *testing.T) {
	if p := pct(0, 0); p != 0 {
		t.Errorf("pct(0,0) = %v, want 0", p)
	}
	if p := pct(0, 5); !math.IsInf(p, 1) {
		t.Errorf("pct(0,5) = %v, want +Inf", p)
	}
	if p := pct(100, 90); p != -10 {
		t.Errorf("pct(100,90) = %v, want -10", p)
	}
	d := delta{oldAlloc: 0, newAlloc: 1}
	if !d.regressed(50) {
		t.Error("zero-baseline alloc regression not flagged")
	}
	d = delta{oldBytes: 0, newBytes: 1}
	if !d.regressed(50) {
		t.Error("zero-baseline B/op regression not flagged")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseInput([]byte("no benchmarks here\n")); err == nil {
		t.Fatal("want error for input without benchmark lines")
	}
	if _, err := parseInput([]byte("{not json")); err == nil {
		t.Fatal("want error for malformed JSON")
	}
}
