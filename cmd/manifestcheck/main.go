// Command manifestcheck validates a run-manifest JSON written by a
// -manifest flag (cmd/experiments, cmd/sweepd, the root benchmarks): it
// must parse, carry the required environment and telemetry keys, and
// round-trip through encoding/json. The clitest suite runs it against a
// fresh cmd/experiments manifest and make bench-smoke against the
// benchmark one; use it locally to sanity-check recorded perf runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: manifestcheck <manifest.json> [more.json ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := check(path); err != nil {
			fmt.Fprintf(os.Stderr, "error: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

func check(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	summary, err := checkBytes(raw)
	if err != nil {
		return err
	}
	fmt.Printf("%s %s\n", path, summary)
	return nil
}

// checkBytes validates one manifest document: it must parse, pass
// obs.Manifest.Validate, and survive a marshal/unmarshal round trip
// that re-validates. It returns the one-line summary for a valid
// manifest. Split from check so the fuzz target can drive it on raw
// bytes.
func checkBytes(raw []byte) (string, error) {
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return "", err
	}
	if err := m.Validate(); err != nil {
		return "", err
	}
	// Round-trip: what we re-marshal must parse back to a manifest that
	// still validates.
	again, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	var m2 obs.Manifest
	if err := json.Unmarshal(again, &m2); err != nil {
		return "", err
	}
	if err := m2.Validate(); err != nil {
		return "", fmt.Errorf("round-tripped manifest no longer validates: %w", err)
	}
	return fmt.Sprintf("ok: command=%s go=%s gomaxprocs=%d studies=%d tasks=%d wall=%.0fms",
		m.Command, m.GoVersion, m.GOMAXPROCS,
		len(m.Telemetry.Studies), m.Telemetry.Tasks.Count, m.WallMS), nil
}
