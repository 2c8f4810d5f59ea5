package core

// This file is the point-level entry into the sweep methodology: one
// benchmark simulated at one fully specified clock design point. The
// studies in this package always run whole grids; the serving layer
// (internal/serve) decomposes client requests into these points so that
// overlapping grids from concurrent clients share simulation work
// through a content-addressed result cache. PointOptions therefore
// carries a canonical form (Normalize) and a collision-resistant cache
// key (Key) with the property that semantically equal option values —
// default-filled versus explicit fields, nil versus empty slices — hash
// identically, while every meaningful field change alters the hash.
// Resolve does both once and returns a Point, the normalized, validated
// and keyed form the serving layer carries from admission to simulation.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// NoOverhead requests an explicitly overhead-free clock (Figure 4a's
// idealization). The zero value keeps the meaning "paper default":
// Table 1's 1.8 FO4 decomposition.
const NoOverhead = -1

// MachineOutOfOrder and MachineInOrder are the canonical machine names a
// point may select; Normalize folds aliases onto them.
const (
	MachineOutOfOrder = "ooo"
	MachineInOrder    = "inorder"
)

// machineAliases maps accepted spellings to canonical machine names.
var machineAliases = map[string]string{
	"":           MachineOutOfOrder,
	"ooo":        MachineOutOfOrder,
	"alpha21264": MachineOutOfOrder,
	"inorder":    MachineInOrder,
	"in-order":   MachineInOrder,
}

// PointOptions fully specifies one simulation point: one benchmark on one
// machine at one clock design point, with the optional Section 5 window
// modifications. The zero value of every field means "the paper default"
// (Normalize makes the defaults explicit), except Useful and Benchmark,
// which are required.
type PointOptions struct {
	// Machine selects the simulated core: "ooo" (default, the Alpha
	// 21264-like dynamically scheduled machine) or "inorder".
	Machine string

	// Benchmark names one SPEC 2000 profile from Table 2 (e.g. "gcc").
	Benchmark string

	// Useful is the useful logic per stage in FO4 — the paper's x-axis.
	Useful float64

	// OverheadFO4 is the total per-stage clocking overhead: 0 means the
	// Table 1 default (1.8 FO4, scaled over its latch/skew/jitter
	// decomposition), NoOverhead (-1) means none.
	OverheadFO4 float64

	// Window, when > 0, replaces the machine's split issue queues with a
	// unified window of that many entries (the Section 5 studies use 32).
	Window int

	// WindowStages pipelines the window's wakeup into this many segments;
	// 0 or 1 is the conventional single-segment window. Values above 1
	// require a unified Window.
	WindowStages int

	// PreSelect enables the Figure 12 partitioned selection quotas; nil
	// or empty means full selection visibility.
	PreSelect []int

	// NaivePipelining selects Stark-style pessimistic window pipelining.
	NaivePipelining bool

	// Instructions per benchmark trace; 0 means the 60000 default.
	Instructions int

	// Warmup instructions excluded from IPC: 0 means the default 20% of
	// Instructions, NoWarmup (-1) means none.
	Warmup int

	// Seed for trace generation; 0 means 1.
	Seed uint64
}

// Normalize returns the canonical form of o: aliases folded, defaults
// made explicit, and empty slices nil. It is idempotent —
// o.Normalize().Normalize() == o.Normalize() — so two option values that
// mean the same point always normalize to the same representation, which
// is what Key hashes.
func (o PointOptions) Normalize() PointOptions {
	n, _ := o.normalize()
	return n
}

// normalize is Normalize that also reports whether the benchmark
// resolved to a Table 2 profile, so validate need not resolve it again.
func (o PointOptions) normalize() (PointOptions, bool) {
	if c, ok := machineAliases[strings.ToLower(strings.TrimSpace(o.Machine))]; ok {
		o.Machine = c
	} else {
		o.Machine = strings.ToLower(strings.TrimSpace(o.Machine))
	}
	p, known := trace.ByName(o.Benchmark)
	if known {
		o.Benchmark = p.Name
	} else {
		o.Benchmark = strings.ToLower(strings.TrimSpace(o.Benchmark))
	}
	if o.Instructions == 0 {
		o.Instructions = 60000
	}
	switch {
	case o.Warmup == 0:
		o.Warmup = o.Instructions / 5
	case o.Warmup < 0:
		o.Warmup = NoWarmup
	}
	// A derived warmup can be non-positive (tiny or invalid Instructions
	// pass through to validate); fold it onto the sentinel so Normalize
	// stays idempotent and "no warmup" has one canonical spelling.
	if o.Warmup <= 0 {
		o.Warmup = NoWarmup
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	switch {
	case o.OverheadFO4 == 0:
		o.OverheadFO4 = fo4.PaperOverhead.Total()
	case o.OverheadFO4 < 0:
		o.OverheadFO4 = NoOverhead
	}
	if o.WindowStages == 0 {
		o.WindowStages = 1
	}
	if len(o.PreSelect) == 0 {
		o.PreSelect = nil
	}
	return o, known
}

// MaxUseful is the deepest useful-logic-per-stage value a point may ask
// for, in FO4. The paper's grid tops out at 16; 64 leaves generous
// headroom for shallow-pipeline studies while keeping request expansion
// bounded.
const MaxUseful = 64

// validate checks the output of normalize, whose known flag says
// whether the benchmark resolved; it reports the first problem in
// request-diagnostic form.
func (o PointOptions) validate(known bool) error {
	if o.Machine != MachineOutOfOrder && o.Machine != MachineInOrder {
		return fmt.Errorf("unknown machine %q (use %q or %q)", o.Machine, MachineOutOfOrder, MachineInOrder)
	}
	if !known {
		return fmt.Errorf("unknown benchmark %q (run experiments workload-table for the Table 2 suite)", o.Benchmark)
	}
	if o.Useful <= 0 || o.Useful > MaxUseful {
		return fmt.Errorf("useful must be in (0, %d] FO4, got %g", MaxUseful, o.Useful)
	}
	if o.Instructions <= 0 {
		return fmt.Errorf("instructions must be positive, got %d", o.Instructions)
	}
	if o.Warmup != NoWarmup && o.Warmup >= o.Instructions {
		return fmt.Errorf("warmup %d leaves no measured instructions of %d", o.Warmup, o.Instructions)
	}
	if o.WindowStages < 1 || o.WindowStages > 32 {
		return fmt.Errorf("window_stages must be in [1, 32], got %d", o.WindowStages)
	}
	if o.WindowStages > 1 && o.Window <= 0 {
		return fmt.Errorf("window_stages %d requires a unified window size (set window, e.g. 32)", o.WindowStages)
	}
	if o.Window < 0 || o.Window > 1024 {
		return fmt.Errorf("window must be in [0, 1024], got %d", o.Window)
	}
	if len(o.PreSelect) >= o.WindowStages && len(o.PreSelect) > 0 {
		return fmt.Errorf("preselect has %d quotas for %d window stages (stage 1 is always fully visible)", len(o.PreSelect), o.WindowStages)
	}
	for _, q := range o.PreSelect {
		if q <= 0 {
			return fmt.Errorf("preselect quotas must be positive, got %d", q)
		}
	}
	return nil
}

// pointKeySchema versions the cache-key layout itself; bump it when the
// canonical encoding below changes shape.
const pointKeySchema = "repro/point/v1"

// Point is a PointOptions that has been normalized and validated once,
// together with its content key. Its fields are unexported and
// Resolve is its only constructor, so every Point it returns names a
// simulatable point; admission, the scheduler and SimulateBatch carry
// it instead of re-deriving either property.
type Point struct {
	opts PointOptions
	key  string
}

// Resolve normalizes o once, validates the result and computes its key
// under codeVersion. It resolves the benchmark once: validation reuses
// the normalize step's answer.
func (o PointOptions) Resolve(codeVersion string) (Point, error) {
	n, known := o.normalize()
	if err := n.validate(known); err != nil {
		return Point{}, err
	}
	return Point{opts: n, key: n.key(codeVersion)}, nil
}

// Options returns the point's normalized options. Its PreSelect slice is
// shared with the point and must not be written.
func (p Point) Options() PointOptions { return p.opts }

// Key returns the point's content key, equal to Options().Key(codeVersion)
// for the codeVersion it was resolved under.
func (p Point) Key() string { return p.key }

// Clock returns the fo4 clock the point runs at.
func (p Point) Clock() fo4.Clock { return p.opts.clock() }

// Key returns the content address of this point's result: a SHA-256 over
// the canonical (normalized) option encoding plus the caller's code
// version. Two PointOptions that mean the same simulation — differing
// only in default-vs-explicit fields, alias spellings, or nil-vs-empty
// slices — produce the same key; any meaningful change (and any
// codeVersion change) produces a different one. The canonical text is
// appended into a stack buffer, so the returned string is Key's only
// allocation.
func (o PointOptions) Key(codeVersion string) string {
	return o.Normalize().key(codeVersion)
}

// key is Key's encoder over options that are already normalized.
func (o PointOptions) key(codeVersion string) string {
	var buf [256]byte
	b := append(buf[:0], pointKeySchema...)
	b = append(b, '\n')
	b = append(b, codeVersion...)
	b = append(b, "\nmachine="...)
	b = append(b, o.Machine...)
	b = append(b, "\nbench="...)
	b = append(b, o.Benchmark...)
	b = append(b, "\nuseful="...)
	b = strconv.AppendFloat(b, o.Useful, 'g', -1, 64)
	b = append(b, "\noverhead="...)
	b = strconv.AppendFloat(b, o.OverheadFO4, 'g', -1, 64)
	b = append(b, "\nwindow="...)
	b = strconv.AppendInt(b, int64(o.Window), 10)
	b = append(b, "\nstages="...)
	b = strconv.AppendInt(b, int64(o.WindowStages), 10)
	b = append(b, "\npreselect="...)
	for i, q := range o.PreSelect {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(q), 10)
	}
	b = append(b, "\nnaive="...)
	b = strconv.AppendBool(b, o.NaivePipelining)
	b = append(b, "\nn="...)
	b = strconv.AppendInt(b, int64(o.Instructions), 10)
	b = append(b, "\nwarmup="...)
	b = strconv.AppendInt(b, int64(o.Warmup), 10)
	b = append(b, "\nseed="...)
	b = strconv.AppendUint(b, o.Seed, 10)
	b = append(b, '\n')
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// ProfileByName resolves a Table 2 benchmark by its full name
// ("176.gcc") or its bare name after the SPEC number ("gcc"),
// case-insensitively, through trace.ByName; it allocates nothing.
func ProfileByName(name string) (trace.Profile, bool) {
	return trace.ByName(name)
}

// BenchmarkNames returns the Table 2 benchmark names in suite order, as
// a slice the caller owns.
func BenchmarkNames() []string {
	return append([]string(nil), benchmarkNames...)
}

// benchmarkNames is the suite's names, read once so BenchmarkNames
// copies 18 strings rather than the 18 profiles.
var benchmarkNames = func() []string {
	all := trace.SPEC2000()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name
	}
	return out
}()

// machine resolves the normalized machine name; validate has already
// rejected unknown names.
func (o PointOptions) machine() config.Machine {
	if o.Machine == MachineInOrder {
		return config.InOrder7Stage()
	}
	return config.Alpha21264()
}

// overhead resolves OverheadFO4 to the Table 1 decomposition scaled to
// the requested total, through the same helper as OverheadSensitivity.
func (o PointOptions) overhead() fo4.Overhead {
	if o.OverheadFO4 == NoOverhead {
		return fo4.Overhead{}
	}
	return scaledPaperOverhead(o.OverheadFO4)
}

// Clock returns the fo4 clock this point resolves to: its useful logic
// depth plus the resolved overhead decomposition.
func (o PointOptions) Clock() fo4.Clock {
	return o.Normalize().clock()
}

// clock is Clock over options that are already normalized.
func (o PointOptions) clock() fo4.Clock {
	return fo4.Clock{Useful: o.Useful, Overhead: o.overhead()}
}

// params resolves normalized options to concrete simulation parameters.
func (o PointOptions) params() pipeline.Params {
	m := o.machine()
	if o.Window > 0 {
		m.UnifiedWindow = o.Window
	}
	warmup := o.Warmup
	if warmup == NoWarmup {
		warmup = 0
	}
	p := pipeline.Params{
		Machine:         m,
		Timing:          m.Resolve(o.clock()),
		Warmup:          warmup,
		NaivePipelining: o.NaivePipelining,
	}
	if o.WindowStages > 1 {
		p.WindowStages = o.WindowStages
	}
	if len(o.PreSelect) > 0 {
		p.PreSelect = append([]int(nil), o.PreSelect...)
	}
	return p
}

// SimulatePoint resolves o and runs it as a one-lane SimulateBatch,
// returning its per-benchmark result at the 100nm technology point the
// paper reports. rec, when non-nil, receives the trace-cache counters;
// it never influences the result.
func SimulatePoint(o PointOptions, rec *obs.Recorder) (BenchPoint, error) {
	p, err := o.Resolve("")
	if err != nil {
		return BenchPoint{}, err
	}
	out, err := SimulateBatch([]Point{p}, rec)
	if err != nil {
		return BenchPoint{}, err
	}
	return out[0], nil
}

// SimulateBatch simulates every resolved point of pts — all of which
// must share one trace (benchmark, instructions, seed) — in one batched
// pass over that trace: the depth-invariant per-benchmark work is done
// once and shared through pipeline.RunBatch instead of once per point.
// Points arrive normalized and validated, so the batch derives each
// lane's Params and resolves the trace's profile once. out[i] carries
// exactly the Stats pipeline.RunWith computes for pts[i] on its own;
// the core batch test pins that equivalence and the serving layer's
// byte-identity test pins it on the wire. The lanes run on simulation
// state borrowed from the package's idle list (see runLanes), so
// concurrent calls are safe and successive calls reuse it.
func SimulateBatch(pts []Point, rec *obs.Recorder) ([]BenchPoint, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	first := pts[0].opts
	for i, p := range pts[1:] {
		if o := p.opts; o.Benchmark != first.Benchmark || o.Instructions != first.Instructions || o.Seed != first.Seed {
			return nil, fmt.Errorf("batch lane %d simulates trace (%s, n=%d, seed=%d) but lane 0 simulates (%s, n=%d, seed=%d); a batch shares one trace",
				i+1, o.Benchmark, o.Instructions, o.Seed, first.Benchmark, first.Instructions, first.Seed)
		}
	}
	prof, ok := ProfileByName(first.Benchmark)
	if !ok {
		return nil, fmt.Errorf("batch lane 0 is not a resolved point (benchmark %q)", first.Benchmark)
	}
	tr := cachedTrace(prof, first.Instructions, first.Seed, rec)
	params := make([]pipeline.Params, len(pts))
	for i, p := range pts {
		params[i] = p.opts.params()
	}
	stats := runLanes(params, tr)
	out := make([]BenchPoint, len(pts))
	for i := range stats {
		out[i] = pointResult(stats[i], tr, pts[i].Clock())
	}
	return out, nil
}

func pointResult(st pipeline.Stats, tr *trace.Trace, clk fo4.Clock) BenchPoint {
	freq := clk.FrequencyHz(fo4.Tech100nm)
	return BenchPoint{
		Name:  tr.Name,
		Group: tr.Group,
		IPC:   st.IPC,
		BIPS:  metrics.BIPS(st.IPC, freq),
		Stats: st,
	}
}
