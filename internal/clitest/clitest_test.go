// The e2e tests in this file drive every cmd/ binary through its real
// CLI. Goldens live under testdata/ and regenerate with
//
//	go test ./internal/clitest -run Golden -update
package clitest

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// binDir holds the freshly built binaries for the whole test run.
var binDir string

// commands is every binary under cmd/, kept in sync by TestMain, which
// fails if the build produces a different set.
var commands = []string{"benchdiff", "experiments", "manifestcheck", "reprolint", "sweepd"}

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "clitest-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "clitest:", err)
		os.Exit(1)
	}
	binDir = dir
	// One build for all binaries; go's build cache makes this cheap when
	// the tree hasn't changed.
	if err := BuildCmds("../..", binDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(binDir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

func TestEveryCommandBuilt(t *testing.T) {
	entries, err := os.ReadDir(binDir)
	if err != nil {
		t.Fatal(err)
	}
	var built []string
	for _, e := range entries {
		built = append(built, e.Name())
	}
	if got, want := fmt.Sprint(built), fmt.Sprint(commands); got != want {
		t.Fatalf("built binaries %v, harness expects %v — update the commands list", built, commands)
	}
}

// bin returns the path of one built binary.
func bin(name string) string {
	return filepath.Join(binDir, name)
}

// run executes one built binary from the package directory (so testdata/
// paths stay relative and deterministic) and returns stdout, stderr and
// the exit code.
func run(t *testing.T, name string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(bin(name), args...)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	exit = 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return out.String(), errb.String(), exit
}

// checkGolden compares got against testdata/<name> (rewriting it under
// -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update after intentional changes):\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}

// The golden runs pin the exact stdout of experiments study selections
// on small, fast configurations; each golden file is named after the
// single-study binary it was first recorded from. Simulation output is
// deterministic across worker counts, but the goldens pin -workers 1
// anyway so a determinism regression shows up as a golden diff here and
// as a test failure in internal/exec, not as flakiness.

func TestGoldenPipesweepFigure5(t *testing.T) {
	stdout, _, exit := run(t, "experiments", "-n", "2000", "-workers", "1", "figure5")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "pipesweep_fig5.txt", stdout)
}

func TestGoldenPipesweepFigure4aJSON(t *testing.T) {
	stdout, _, exit := run(t, "experiments", "-n", "2000", "-workers", "1", "-json", "figure4a")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "pipesweep_fig4a.json", stdout)
}

func TestGoldenSegwin(t *testing.T) {
	stdout, _, exit := run(t, "experiments", "-n", "1000", "-workers", "1", "figure8", "figure11", "segmented-select", "cray1s")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "segwin.txt", stdout)
}

func TestGoldenLatchsim(t *testing.T) {
	stdout, _, exit := run(t, "experiments", "-latchstep", "1", "table1")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "latchsim.txt", stdout)
}

func TestGoldenTraceinfo(t *testing.T) {
	stdout, _, exit := run(t, "experiments", "-n", "5000", "-workers", "1", "workload-table")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "traceinfo.txt", stdout)
}

func TestGoldenCactigen(t *testing.T) {
	stdout, _, exit := run(t, "experiments", "table3", "structure-summary")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "cactigen.txt", stdout)
}

func TestGoldenBenchdiff(t *testing.T) {
	stdout, _, exit := run(t, "benchdiff", "testdata/bench_old.txt", "testdata/bench_new_ok.txt")
	if exit != 0 {
		t.Fatalf("clean comparison exit = %d, want 0", exit)
	}
	checkGolden(t, "benchdiff_ok.txt", stdout)

	stdout, _, exit = run(t, "benchdiff", "testdata/bench_old.txt", "testdata/bench_new_bad.txt")
	if exit != 1 {
		t.Fatalf("regression comparison exit = %d, want 1", exit)
	}
	checkGolden(t, "benchdiff_bad.txt", stdout)
}

func TestBenchdiffRecordRoundTrip(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	_, stderr, exit := run(t, "benchdiff", "-record", baseline, "testdata/bench_old.txt")
	if exit != 0 {
		t.Fatalf("-record exit = %d: %s", exit, stderr)
	}
	// A recorded baseline must compare clean against its own source.
	stdout, stderr, exit := run(t, "benchdiff", baseline, "testdata/bench_old.txt")
	if exit != 0 {
		t.Fatalf("self-comparison exit = %d: %s%s", exit, stdout, stderr)
	}
}

func TestManifestcheck(t *testing.T) {
	// The error path is deterministic: golden it.
	stdout, stderr, exit := run(t, "manifestcheck", "testdata/bad_manifest.json")
	if exit != 1 {
		t.Fatalf("bad manifest exit = %d, want 1 (stdout %q)", exit, stdout)
	}
	checkGolden(t, "manifestcheck_bad.txt", stderr)

	// The ok path carries environment-dependent fields (go version,
	// GOMAXPROCS, wall time), so pin its shape, not its bytes: record a
	// real manifest and CPU profile with experiments and validate them.
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.json")
	profile := filepath.Join(dir, "cpu.pprof")
	if _, stderr, exit := run(t, "experiments", "-n", "500", "-workers", "1",
		"-cpuprofile", profile, "-manifest", manifest, "figure4a"); exit != 0 {
		t.Fatalf("experiments -manifest exit = %d: %s", exit, stderr)
	}
	stdout, stderr, exit = run(t, "manifestcheck", manifest)
	if exit != 0 {
		t.Fatalf("manifestcheck exit = %d: %s", exit, stderr)
	}
	if !strings.Contains(stdout, "ok: command=experiments") {
		t.Fatalf("manifestcheck stdout %q does not report the experiments run", stdout)
	}
	// pprof profiles are gzip-compressed protobufs.
	raw, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Errorf("CPU profile is %d bytes without the gzip magic", len(raw))
	}

	if _, _, exit := run(t, "manifestcheck"); exit != 2 {
		t.Errorf("no-args exit = %d, want 2", exit)
	}
}

// TestStudySpansFollowTable runs the whole study table and checks the
// manifest's spans against the order experiments lists in its usage, so
// a table entry and the span its driver records cannot drift apart.
// Drivers may nest other studies' spans (headline reruns figure5), so
// the table must be a subsequence of the spans, and every span must
// name a study.
func TestStudySpansFollowTable(t *testing.T) {
	_, usage, exit := run(t, "experiments", "-h")
	if exit != 0 {
		t.Fatalf("-h exit = %d", exit)
	}
	var table []string
	for _, line := range strings.Split(usage, "\n") {
		if _, list, ok := strings.Cut(line, "studies (default: all, in this order):"); ok {
			table = strings.Fields(list)
		}
	}
	if len(table) == 0 {
		t.Fatalf("usage lists no studies:\n%s", usage)
	}

	manifest := filepath.Join(t.TempDir(), "m.json")
	if _, stderr, exit := run(t, "experiments", "-n", "500", "-workers", "1", "-bench", "gcc", "-manifest", manifest); exit != 0 {
		t.Fatalf("experiments exit = %d: %s", exit, stderr)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, st := range m.Telemetry.Studies {
		spans = append(spans, st.Name)
		if !slices.Contains(table, st.Name) {
			t.Errorf("span %q names no study in the table", st.Name)
		}
	}
	next := 0
	for _, name := range spans {
		if next < len(table) && name == table[next] {
			next++
		}
	}
	if next < len(table) {
		t.Errorf("spans %v do not follow the table order %v: no span for %q in place", spans, table, table[next])
	}
}

// TestBadFlagExitsTwo pins the whole flag surface's error convention:
// an unknown flag is a usage error (exit 2) for every binary.
func TestBadFlagExitsTwo(t *testing.T) {
	for _, name := range commands {
		_, stderr, exit := run(t, name, "-definitely-not-a-flag")
		if exit != 2 {
			t.Errorf("%s: unknown-flag exit = %d, want 2 (stderr %q)", name, exit, stderr)
		}
	}
}

func TestBadSimFlagValuesExitTwo(t *testing.T) {
	cases := [][]string{
		{"experiments", "-n", "0"},
		{"experiments", "figure99"},
		{"experiments", "-workers", "-1"},
		{"experiments", "-bench", "no-such-benchmark"},
		{"sweepd", "-queue", "0"},
		{"sweepd", "-addr", ""},
		{"sweepd", "-slow-request", "-1s"},
		{"sweepd", "-debug-addr", "not-a-hostport"},
		{"benchdiff", "onlyone.txt"},
	}
	for _, c := range cases {
		_, stderr, exit := run(t, c[0], c[1:]...)
		if exit != 2 {
			t.Errorf("%v: exit = %d, want 2 (stderr %q)", c, exit, stderr)
		}
	}
}
