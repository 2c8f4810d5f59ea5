// Command benchdiff compares two `go test -bench` runs and flags
// performance regressions. Each input is either raw benchmark output or
// a baseline recorded with -record; the comparison reports ns/op, B/op
// and allocs/op per benchmark and exits nonzero when any of them got
// worse by more than -threshold percent (the perf-regression gate CI runs
// against BENCH_baseline.json — see EXPERIMENTS.md for the workflow).
//
// Usage:
//
//	benchdiff [-threshold 10] old new   compare two runs (text or JSON)
//	benchdiff -record out.json run.txt  record a baseline from raw output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	threshold := flag.Float64("threshold", 10, "regression threshold in percent on ns/op, B/op and allocs/op")
	recordPath := flag.String("record", "", "record the single input as a baseline JSON at this `path` instead of comparing")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] <old> <new>")
		fmt.Fprintln(os.Stderr, "       benchdiff -record <out.json> <run>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(*threshold, *recordPath, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(2)
	}
}

func run(threshold float64, recordPath string, args []string) error {
	if recordPath != "" {
		if len(args) != 1 {
			return fmt.Errorf("-record takes exactly one input run, got %d", len(args))
		}
		results, err := load(args[0])
		if err != nil {
			return err
		}
		out, err := record(results)
		if err != nil {
			return err
		}
		if err := os.WriteFile(recordPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("recorded %d benchmarks to %s\n", len(results), recordPath)
		return nil
	}

	if len(args) != 2 {
		return fmt.Errorf("need exactly two runs to compare, got %d", len(args))
	}
	old, err := load(args[0])
	if err != nil {
		return err
	}
	new, err := load(args[1])
	if err != nil {
		return err
	}
	deltas, onlyOld, onlyNew := compare(old, new)
	var w strings.Builder
	bad := report(&w, deltas, onlyOld, onlyNew, threshold)
	fmt.Print(w.String())
	if bad {
		fmt.Printf("FAIL: regression beyond %.1f%% (marked !)\n", threshold)
		os.Exit(1)
	}
	fmt.Printf("ok: no regression beyond %.1f%%\n", threshold)
	return nil
}

func load(path string) ([]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	results, err := parseInput(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}
