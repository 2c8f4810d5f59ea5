// Package promtext is the daemon-grade metrics core behind sweepd's
// GET /metrics: a stdlib-only registry of counters, gauges and
// fixed-bucket histograms rendered in Prometheus text exposition format
// 0.0.4. It exists because internal/obs.Recorder is an end-of-run
// snapshot (manifests), while a daemon that never exits needs a surface
// a scraper can poll continuously.
//
// Design contract, mirroring internal/obs:
//
//   - Observation-only. Nothing in this package may influence
//     simulation results; simulation packages are forbidden from even
//     importing it (the reprolint obsinert rule), so every value flows
//     in through the serving layer's instruments or snapshot families.
//   - Nil-safe instruments. Every instrument method is a no-op on a nil
//     receiver, so a daemon with metrics disabled threads nil handles
//     instead of guarding each call site.
//   - Concurrency-safe. Counters and histogram cells are atomics; a
//     scrape renders a point-in-time snapshot that is internally
//     consistent per family (histogram buckets are cumulative and
//     monotone within one exposition) and per snapshot group (one read
//     feeds every family of a NewSnapshotFamilies call).
//
// The package name avoids internal/metrics, which is the paper's
// BIPS/IPC accounting and entirely unrelated.
package promtext

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ContentType is the exposition content type a scraper negotiates.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// sample is one rendered exposition line: an optional {label="value"}
// suffix on the family name, and the formatted value.
type sample struct {
	suffix string // appended to the family name verbatim ("" or "_sum"...)
	labels string // rendered label set, "" or `{le="0.5"}`
	value  string
}

// family is one metric family: its metadata and either a collect
// function that snapshots the current samples at scrape time, or a slot
// in a snapshot group whose one read per scrape feeds every member.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge" or "histogram"
	collect func() []sample
	group   *snapshotGroup // non-nil for NewSnapshotFamilies members
	slot    int            // this family's index into group.read()'s values
}

// Registry holds metric families and renders them sorted by name. The
// zero value is not usable; call NewRegistry. A nil *Registry is a
// valid "metrics disabled" registry: every constructor returns a nil
// instrument whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// validName is the Prometheus metric-name grammar:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register adds one direct-instrument family.
func (r *Registry) register(name, help, typ string, collect func() []sample) {
	r.add(&family{name: name, help: help, typ: typ, collect: collect})
}

// add adds one family, panicking on an invalid or duplicate name — both
// are programmer errors caught by the first scrape test.
func (r *Registry) add(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("promtext: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("promtext: duplicate metric name %q", f.name))
	}
	r.families = append(r.families, f)
	r.byName[f.name] = f
}

// formatValue renders an exposition float: integral values print as
// integers (the common case — counters and byte gauges — stays
// grep-friendly), everything else in Go's shortest float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// WriteTo renders every family, sorted by name, in text exposition
// format 0.0.4: a # HELP and # TYPE line per family followed by its
// samples.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	reads := map[*snapshotGroup][]float64{} // one read per group per scrape
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.group != nil {
			vals, ok := reads[f.group]
			if !ok {
				vals = f.group.read()
				reads[f.group] = vals
			}
			fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(vals[f.slot]))
			continue
		}
		for _, s := range f.collect() {
			fmt.Fprintf(&b, "%s%s%s %s\n", f.name, s.suffix, s.labels, s.value)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Handler serves the registry as an HTTP endpoint with the exposition
// content type. A nil registry serves 404 (metrics disabled).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		r.WriteTo(w)
	})
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// NewCounter registers a counter. Returns nil (a no-op instrument) on a
// nil registry.
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, "counter", func() []sample {
		return []sample{{value: formatValue(float64(c.v.Load()))}}
	})
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter; negative deltas are ignored (counters are
// monotone by definition).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterVec is a family of counters split by one label.
type CounterVec struct {
	label string

	mu    sync.Mutex
	cells map[string]*Counter
}

// NewCounterVec registers a one-label counter family. Cells materialize
// on first use and render sorted by label value.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	if !validName(label) || strings.Contains(label, ":") {
		panic(fmt.Sprintf("promtext: invalid label name %q", label))
	}
	v := &CounterVec{label: label, cells: map[string]*Counter{}}
	r.register(name, help, "counter", func() []sample {
		v.mu.Lock()
		vals := make([]string, 0, len(v.cells))
		for val := range v.cells { //reprolint:allow mapiter: label values are collected then sorted before rendering; scrape bytes stay order-stable
			vals = append(vals, val)
		}
		sort.Strings(vals)
		out := make([]sample, 0, len(vals))
		for _, val := range vals {
			out = append(out, sample{
				labels: fmt.Sprintf("{%s=\"%s\"}", v.label, escapeLabel(val)),
				value:  formatValue(float64(v.cells[val].Value())),
			})
		}
		v.mu.Unlock()
		return out
	})
	return v
}

// With returns the counter cell for one label value, creating it on
// first use. Nil-safe: a nil vec returns a nil (no-op) counter.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.cells[value]
	if !ok {
		c = &Counter{}
		v.cells[value] = c
	}
	return c
}

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge registers a gauge; nil-safe like NewCounter.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(name, help, "gauge", func() []sample {
		return []sample{{value: formatValue(g.Value())}}
	})
	return g
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Desc declares one scalar family fed by NewSnapshotFamilies: its name,
// its TYPE ("counter" or "gauge") and its HELP text.
type Desc struct {
	Name, Type, Help string
}

// snapshotGroup is the shared source of one NewSnapshotFamilies call.
type snapshotGroup struct {
	read func() []float64
}

// NewSnapshotFamilies registers one scalar family per desc, all fed by a
// single call to read per scrape: read returns one value per desc, in
// descs order. This is the bridge for numbers that already live in a
// snapshot elsewhere (a /stats struct, a store's Stats) — one read means
// every family in a scrape comes from the same instant, so related
// families (a sum and its parts) cannot disagree within one exposition.
// A nil registry never calls read.
func (r *Registry) NewSnapshotFamilies(descs []Desc, read func() []float64) {
	if r == nil {
		return
	}
	g := &snapshotGroup{read: read}
	for i, d := range descs {
		if d.Type != "counter" && d.Type != "gauge" {
			panic(fmt.Sprintf("promtext: snapshot family %s has type %q, want counter or gauge", d.Name, d.Type))
		}
		r.add(&family{name: d.Name, help: d.Help, typ: d.Type, group: g, slot: i})
	}
}

// NewInfo registers the conventional info pseudo-metric: a gauge fixed
// at 1 whose labels carry build metadata (build_info{version="..."} 1).
// Labels render sorted by name.
func (r *Registry) NewInfo(name, help string, labels map[string]string) {
	if r == nil {
		return
	}
	names := make([]string, 0, len(labels))
	for k := range labels { //reprolint:allow mapiter: label names are validated here then sorted before rendering; scrape bytes stay order-stable
		if !validName(k) || strings.Contains(k, ":") {
			panic(fmt.Sprintf("promtext: invalid label name %q", k))
		}
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabel(labels[k]))
	}
	b.WriteByte('}')
	rendered := b.String()
	r.register(name, help, "gauge", func() []sample {
		return []sample{{labels: rendered, value: "1"}}
	})
}

// Histogram is a fixed-bucket distribution: observation counts per
// upper bound plus a sum, rendered cumulatively the Prometheus way.
// Buckets are chosen at construction and never change, so concurrent
// Observe calls touch only atomics.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1: one cell per bound plus the +Inf overflow
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// DefBuckets is the default latency bucket ladder, in seconds: wide
// enough for a multi-second simulation batch, fine enough to see a
// sub-millisecond cache hit.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// NewHistogram registers a histogram over the given bucket upper
// bounds, which must be strictly increasing; nil buckets means
// DefBuckets. Nil-safe like NewCounter.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("promtext: histogram %s buckets not strictly increasing at %v", name, buckets[i]))
		}
	}
	if len(buckets) > 0 && math.IsInf(buckets[len(buckets)-1], +1) {
		buckets = buckets[:len(buckets)-1] // +Inf is implicit
	}
	h := &Histogram{bounds: append([]float64(nil), buckets...)}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	r.register(name, help, "histogram", func() []sample { return h.snapshot() })
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf cell
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// snapshot renders the cumulative bucket lines, sum and count. The cell
// reads are a point-in-time snapshot: cumulative counts are computed
// from one pass, so within a single exposition buckets are monotone and
// _count equals the +Inf bucket by construction.
func (h *Histogram) snapshot() []sample {
	cells := make([]int64, len(h.counts))
	for i := range h.counts {
		cells[i] = h.counts[i].Load()
	}
	out := make([]sample, 0, len(cells)+2)
	var cum int64
	for i, b := range h.bounds {
		cum += cells[i]
		out = append(out, sample{
			suffix: "_bucket",
			labels: fmt.Sprintf("{le=%q}", formatValue(b)),
			value:  formatValue(float64(cum)),
		})
	}
	cum += cells[len(cells)-1]
	out = append(out, sample{suffix: "_bucket", labels: `{le="+Inf"}`, value: formatValue(float64(cum))})
	out = append(out, sample{suffix: "_sum", value: formatValue(math.Float64frombits(h.sum.Load()))})
	out = append(out, sample{suffix: "_count", value: formatValue(float64(cum))})
	return out
}

// Sum reads the accumulated observation sum (0 on nil), for tests.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Count reads the total observation count (0 on nil), for tests.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
