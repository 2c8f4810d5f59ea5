// Command benchmark is the repository's end-to-end benchmark. It drives
// one workload per run from a single process and prints every metric by
// name and unit, then one JSON result line:
//
//	bash benchmark/run.sh --workload serve-cold --seed 3 --seconds 5 --trace 0
//
// Workloads (README.md in this directory gives the layer map):
//
//   - study-fig5: repeated experiments.RunFigure5 studies, the way a
//     researcher regenerates Figure 5 in process.
//   - serve-cold: closed-loop clients posting small never-seen grids to
//     an in-process sweepd (serve.Server over a store.Durable).
//   - serve-hot: the same clients replaying a working set that a
//     previous server simulated, after a warm restart of the store.
//
// With --trace 0 the run measures the end-to-end metrics with no
// tracing. With --trace 1 it measures the same workload untraced and
// then traced for half of --seconds each; the traced half records spans
// around the calls this benchmark makes into each layer's public
// functions and reports the per-layer metrics plus the tracing overhead.
// Every operation's output is checked; a mismatch is counted as failed
// and makes the command exit 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spec     string // path of BENCHMARK.json
	scratch  string // directory for the run's stores
	commit   string
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*runCtx) error{
	"study-fig5": runStudy,
	"serve-cold": runServeCold,
	"serve-hot":  runServeHot,
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: study-fig5, serve-cold or serve-hot")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 5, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics in a separate traced phase")
	fs.StringVar(&o.spec, "spec", "../BENCHMARK.json", "benchmark definition naming the metrics to report")
	fs.StringVar(&o.scratch, "scratch", os.TempDir(), "directory for the run's temporary stores")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the code under test, for the environment stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload study-fig5|serve-cold|serve-hot, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o.trace = trace == 1
	names, err := loadSpec(o.spec, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}

	// Pin GOMAXPROCS to the CPUs this process may run on, so a run never
	// depends on how the runtime read a container's quota.
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir, err := os.MkdirTemp(o.scratch, o.workload+"-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rc := &runCtx{opts: o, dir: dir, gen: newGen(o.seed), metrics: map[string]metric{}}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, trace)
	fmt.Fprintf(stdout, "# env %s\n", envStamp(o))
	if err := drive(rc); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	rc.printTable(stdout)
	for _, f := range rc.failures {
		fmt.Fprintf(stderr, "benchmark: mismatch: %s\n", f)
	}

	out, err := rc.result(names)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, out)
	if rc.failed > 0 {
		return 1
	}
	return 0
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec returns the metrics BENCHMARK.json names for this mode: the
// end-to-end metrics untraced, the per-layer metrics traced. The
// definition file is the one list of metric names; the run fails if it
// did not measure one of them.
func loadSpec(path string, traced bool) ([]specMetric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// envStamp describes the machine and build a result was measured on.
func envStamp(o options) string {
	stamp, _ := json.Marshal(map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     o.commit,
		"seed":       o.seed,
		"workload":   o.workload,
	})
	return string(stamp)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or reports the
// architecture where that file does not exist.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// metric is one measured value. s, when set, is the timing sample the
// value summarizes, printed with its sample count and tail.
type metric struct {
	value float64
	unit  string
	s     *summary
	note  string
}

// runCtx carries one run's inputs and collects its results.
type runCtx struct {
	opts options
	dir  string
	gen  *gen

	metrics map[string]metric

	mu        sync.Mutex // guards the counts below; clients check concurrently
	attempted int
	failed    int
	failures  []string // the first few mismatch descriptions
}

// phaseSeconds is the length of one timed phase: the whole of --seconds
// untraced, half of it for each of the two phases of a traced run.
func (rc *runCtx) phaseSeconds() time.Duration {
	d := rc.opts.seconds
	if rc.opts.trace {
		d /= 2
	}
	return time.Duration(d * float64(time.Second))
}

// set records a metric; later calls for a name replace earlier ones.
func (rc *runCtx) set(name string, value float64, unit string) {
	rc.metrics[name] = metric{value: value, unit: unit}
}

// setTiming records the median of a timing sample under name.
func (rc *runCtx) setTiming(name string, xs []float64, unit string) {
	s := summarize(xs)
	rc.metrics[name] = metric{value: s.P50, unit: unit, s: &s}
}

// check counts one checked operation and records err as a mismatch.
func (rc *runCtx) check(err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.attempted++
	if err != nil {
		rc.failed++
		if len(rc.failures) < 10 {
			rc.failures = append(rc.failures, err.Error())
		}
	}
}

// printTable prints every metric the run measured, by name and unit,
// with the sample count and tail percentile of each timing.
func (rc *runCtx) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-32s %14s  %-6s %7s  %s\n", "metric", "value", "unit", "samples", "tail")
	names := make([]string, 0, len(rc.metrics))
	for name := range rc.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rc.metrics[name]
		n, tail := "", ""
		if m.s != nil {
			n = fmt.Sprint(m.s.N)
			tail = "no percentile has 10 samples beyond it"
			if m.s.TailPct > 0 {
				tail = fmt.Sprintf("p%g = %.4g %s", m.s.TailPct, m.s.Tail, m.unit)
			}
		}
		if m.note != "" {
			tail = strings.TrimSpace(tail + " " + m.note)
		}
		fmt.Fprintf(w, "%-32s %14.6g  %-6s %7s  %s\n", name, m.value, m.unit, n, tail)
	}
	rate := 0.0
	if rc.attempted > 0 {
		rate = float64(rc.failed) / float64(rc.attempted)
	}
	fmt.Fprintf(w, "%-32s %14.6g  %-6s %7d  failed %d\n", "error_rate", rate, "ratio", rc.attempted, rc.failed)
}

// result renders the final JSON line with exactly the metrics names
// lists, and fails if one was not measured or carries another unit.
func (rc *runCtx) result(names []specMetric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rc.failed == 0, Attempted: rc.attempted, Failed: rc.failed, Metrics: map[string]value{}}
	var missing []string
	for _, n := range names {
		m, ok := rc.metrics[n.Name]
		switch {
		case !ok:
			missing = append(missing, n.Name)
		case m.unit != n.Unit:
			return "", fmt.Errorf("metric %s measured in %s, defined in %s", n.Name, m.unit, n.Unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			return "", fmt.Errorf("metric %s is %v", n.Name, m.value)
		}
		out.Metrics[n.Name] = value{Value: m.value, Unit: m.unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if rc.attempted == 0 {
		return "", errors.New("no operation was attempted")
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}
