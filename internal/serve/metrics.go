package serve

// The /metrics surface. Everything here is derived observation. A
// scrape renders two kinds of family: the Stats fields that declare a
// family in their struct tags, all read from one Server.snapshot per
// scrape (the same function /stats encodes, so the two endpoints can
// never disagree — one schema, two renderings), and the serving-layer
// instruments below (latency histograms, reject reasons) that /stats
// never carried. Nothing in this file may influence a sweep body; the
// telemetry-inertness test pins that.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"

	"repro/internal/obs/promtext"
)

// serverMetrics bundles the daemon's direct instruments. It is always
// non-nil on a Server; with metrics disabled the registry and every
// instrument are nil and each call no-ops (promtext's nil-safety), so
// call sites never guard.
type serverMetrics struct {
	reg *promtext.Registry

	reqSeconds    *promtext.Histogram  // sweep_request_seconds
	streamSeconds *promtext.Histogram  // sweep_stream_seconds
	queueWait     *promtext.Histogram  // sweep_queue_wait_seconds
	rejects       *promtext.CounterVec // sweep_rejects_total{reason}
	streamBytes   *promtext.Counter    // sweep_stream_bytes_total
	slow          *promtext.Counter    // sweep_slow_requests_total
	httpInflight  *promtext.Gauge      // sweep_http_requests_inflight
}

// newServerMetrics builds the registry for one Server. The snapshot
// families close over s and read s.sched lazily at scrape time, so this
// runs before the scheduler exists; disabled metrics produce a nil
// registry whose Handler serves 404.
func newServerMetrics(enabled bool, s *Server) *serverMetrics {
	var reg *promtext.Registry
	if enabled {
		reg = promtext.NewRegistry()
	}
	m := &serverMetrics{reg: reg}

	// Serving-path instruments.
	m.reqSeconds = reg.NewHistogram("sweep_request_seconds",
		"End-to-end /sweep request latency in seconds, rejects included.", nil)
	m.streamSeconds = reg.NewHistogram("sweep_stream_seconds",
		"NDJSON stream duration in seconds, from admission to last byte.", nil)
	m.queueWait = reg.NewHistogram("sweep_queue_wait_seconds",
		"Seconds a point waited between admission and simulation start.", nil)
	m.rejects = reg.NewCounterVec("sweep_rejects_total",
		"Rejected /sweep requests by reason.", "reason")
	m.streamBytes = reg.NewCounter("sweep_stream_bytes_total",
		"Response-body bytes written by /sweep streams.")
	m.slow = reg.NewCounter("sweep_slow_requests_total",
		"Requests slower than the -slow-request threshold.")
	m.httpInflight = reg.NewGauge("sweep_http_requests_inflight",
		"HTTP requests currently being served, all endpoints.")

	// Every derived number /stats carries, one snapshot per scrape.
	descs, fields := statsFamilies()
	reg.NewSnapshotFamilies(descs, func() []float64 {
		return statsValues(s.snapshot(), fields)
	})

	reg.NewInfo("build_info",
		"Build metadata; code_version is the cache-key version stamp.",
		map[string]string{
			"code_version": s.cfg.CodeVersion,
			"go":           runtime.Version(),
		})
	return m
}

// statsFamilies reads the metric declarations off Stats: one
// promtext.Desc per field tagged `metric:"name,type" help:"..."`, and
// that field's index, in field order. Untagged fields (the hit ratio,
// telemetry) have no family.
func statsFamilies() ([]promtext.Desc, []int) {
	var (
		descs  []promtext.Desc
		fields []int
	)
	t := reflect.TypeOf(Stats{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		name, typ, _ := strings.Cut(tag, ",")
		descs = append(descs, promtext.Desc{Name: name, Type: typ, Help: f.Tag.Get("help")})
		fields = append(fields, i)
	}
	return descs, fields
}

// statsValues renders the given Stats fields as exposition values; a
// bool is 1 or 0.
func statsValues(st Stats, fields []int) []float64 {
	v := reflect.ValueOf(st)
	out := make([]float64, len(fields))
	for k, i := range fields {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			out[k] = float64(f.Int())
		case reflect.Uint64:
			out[k] = float64(f.Uint())
		case reflect.Float64:
			out[k] = f.Float()
		case reflect.Bool:
			if f.Bool() {
				out[k] = 1
			}
		default:
			panic(fmt.Sprintf("serve: Stats field %d declares a metric but is a %s", i, f.Kind()))
		}
	}
	return out
}
