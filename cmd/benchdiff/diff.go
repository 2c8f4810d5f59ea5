package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded performance: the three metrics the
// perf-regression gate compares — wall time, bytes allocated and
// allocation count per operation.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// File is the recorded-baseline JSON document (see -record).
type File struct {
	Benchmarks []Result `json:"benchmarks"`
}

// parseInput reads benchmark results from either a recorded JSON
// baseline (first non-space byte '{') or raw `go test -bench` text.
func parseInput(raw []byte) ([]Result, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var f File
		if err := json.Unmarshal(trimmed, &f); err != nil {
			return nil, fmt.Errorf("parsing recorded baseline: %w", err)
		}
		return f.Benchmarks, nil
	}
	return parseBenchText(raw)
}

// parseBenchText extracts benchmark lines from `go test -bench` output.
// A benchmark line is `BenchmarkName[-P] <iterations> {<value> <unit>}...`;
// the -P GOMAXPROCS suffix is stripped so runs from different hosts
// compare by name.
func parseBenchText(raw []byte) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not an iteration count: some other Benchmark-prefixed line
		}
		r := Result{Name: stripCPUSuffix(fields[0])}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
				seen = true
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		if seen {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}

// stripCPUSuffix removes the trailing -<GOMAXPROCS> that `go test`
// appends to benchmark names on multi-proc runs.
func stripCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.ParseInt(name[i+1:], 10, 64); err != nil {
		return name
	}
	return name[:i]
}

// record serializes results as the baseline JSON document, sorted by
// name so recorded files diff cleanly.
func record(results []Result) ([]byte, error) {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	out, err := json.MarshalIndent(File{Benchmarks: sorted}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// delta is one benchmark's old→new comparison.
type delta struct {
	name               string
	oldNs, newNs       float64
	oldBytes, newBytes float64
	oldAlloc, newAlloc float64
}

// pct returns the relative change new vs old in percent; +Inf when a
// zero baseline regresses (and 0 for zero→zero).
func pct(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (new - old) / old * 100
}

func (d delta) nsPct() float64    { return pct(d.oldNs, d.newNs) }
func (d delta) bytesPct() float64 { return pct(d.oldBytes, d.newBytes) }
func (d delta) allocPct() float64 { return pct(d.oldAlloc, d.newAlloc) }

// regressed reports whether any metric got worse by more than threshold
// percent.
func (d delta) regressed(threshold float64) bool {
	return d.nsPct() > threshold || d.bytesPct() > threshold || d.allocPct() > threshold
}

// compare pairs old and new results by name, in old's order. Benchmarks
// present on only one side are returned separately: they cannot regress,
// but the report names them so a silently shrinking benchmark suite is
// visible.
func compare(old, new []Result) (deltas []delta, onlyOld, onlyNew []string) {
	newByName := make(map[string]Result, len(new))
	for _, r := range new {
		newByName[r.Name] = r
	}
	matched := make(map[string]bool, len(old))
	for _, o := range old {
		n, ok := newByName[o.Name]
		if !ok {
			onlyOld = append(onlyOld, o.Name)
			continue
		}
		matched[o.Name] = true
		deltas = append(deltas, delta{
			name:  o.Name,
			oldNs: o.NsPerOp, newNs: n.NsPerOp,
			oldBytes: o.BytesPerOp, newBytes: n.BytesPerOp,
			oldAlloc: o.AllocsPerOp, newAlloc: n.AllocsPerOp,
		})
	}
	for _, r := range new {
		if !matched[r.Name] {
			onlyNew = append(onlyNew, r.Name)
		}
	}
	return deltas, onlyOld, onlyNew
}

// fmtPct renders a relative change, marking regressions past threshold.
func fmtPct(p, threshold float64) string {
	s := fmt.Sprintf("%+.1f%%", p)
	if math.IsInf(p, 1) {
		s = "+inf"
	}
	if p > threshold {
		s += " !"
	}
	return s
}

// report writes the comparison table and returns whether any benchmark
// regressed past threshold.
func report(w *strings.Builder, deltas []delta, onlyOld, onlyNew []string, threshold float64) bool {
	bad := false
	nameW := len("benchmark")
	for _, d := range deltas {
		if len(d.name) > nameW {
			nameW = len(d.name)
		}
	}
	fmt.Fprintf(w, "%-*s  %14s  %14s  %9s  %12s  %12s  %9s  %12s  %12s  %9s\n", nameW, "benchmark",
		"old ns/op", "new ns/op", "delta", "old B/op", "new B/op", "delta", "old allocs", "new allocs", "delta")
	for _, d := range deltas {
		if d.regressed(threshold) {
			bad = true
		}
		fmt.Fprintf(w, "%-*s  %14.0f  %14.0f  %9s  %12.0f  %12.0f  %9s  %12.0f  %12.0f  %9s\n", nameW, d.name,
			d.oldNs, d.newNs, fmtPct(d.nsPct(), threshold),
			d.oldBytes, d.newBytes, fmtPct(d.bytesPct(), threshold),
			d.oldAlloc, d.newAlloc, fmtPct(d.allocPct(), threshold))
	}
	for _, n := range onlyOld {
		fmt.Fprintf(w, "%s: only in old run\n", n)
	}
	for _, n := range onlyNew {
		fmt.Fprintf(w, "%s: only in new run\n", n)
	}
	return bad
}
