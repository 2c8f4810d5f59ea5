package promtext

import (
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestExpositionShape(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("sweep_requests_total", "Total /sweep requests.")
	c.Add(3)
	g := r.NewGauge("sweep_inflight_points", "Points now simulating.")
	g.Set(2)
	v := r.NewCounterVec("sweep_rejects_total", "Rejected requests by reason.", "reason")
	v.With("queue_full").Add(4)
	v.With("bad_request").Inc()
	h := r.NewHistogram("sweep_request_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.NewInfo("build_info", "Build metadata.", map[string]string{
		"version": "pr7", "code_version": "cv1",
	})
	r.NewSnapshotFamilies([]Desc{{Name: "store_entries", Type: "gauge", Help: "Store entries."}},
		func() []float64 { return []float64{7} })

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got := b.String()

	want := strings.Join([]string{
		`# HELP build_info Build metadata.`,
		`# TYPE build_info gauge`,
		`build_info{code_version="cv1",version="pr7"} 1`,
		`# HELP store_entries Store entries.`,
		`# TYPE store_entries gauge`,
		`store_entries 7`,
		`# HELP sweep_inflight_points Points now simulating.`,
		`# TYPE sweep_inflight_points gauge`,
		`sweep_inflight_points 2`,
		`# HELP sweep_rejects_total Rejected requests by reason.`,
		`# TYPE sweep_rejects_total counter`,
		`sweep_rejects_total{reason="bad_request"} 1`,
		`sweep_rejects_total{reason="queue_full"} 4`,
		`# HELP sweep_request_seconds Request latency.`,
		`# TYPE sweep_request_seconds histogram`,
		`sweep_request_seconds_bucket{le="0.1"} 1`,
		`sweep_request_seconds_bucket{le="1"} 2`,
		`sweep_request_seconds_bucket{le="+Inf"} 3`,
		`sweep_request_seconds_sum 5.55`,
		`sweep_request_seconds_count 3`,
		`# HELP sweep_requests_total Total /sweep requests.`,
		`# TYPE sweep_requests_total counter`,
		`sweep_requests_total 3`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := Lint([]byte(got)); err != nil {
		t.Errorf("Lint rejected own exposition: %v", err)
	}
}

func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "h", []float64{1, 2})
	// Observations exactly on a bound land in that bound's bucket (le is
	// inclusive), and +Inf in the bounds slice collapses into the
	// implicit overflow cell.
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	s := h.snapshot()
	if s[0].value != "1" || s[1].value != "2" || s[2].value != "3" {
		t.Errorf("cumulative buckets = %v %v %v, want 1 2 3", s[0].value, s[1].value, s[2].value)
	}

	h2 := r.NewHistogram("h2", "h2", []float64{1, math.Inf(+1)})
	h2.Observe(5)
	if got := len(h2.bounds); got != 1 {
		t.Errorf("explicit +Inf bound kept: %d bounds, want 1", got)
	}
	if h2.Count() != 1 {
		t.Errorf("Count = %d, want 1", h2.Count())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "h", DefBuckets)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w*perWorker+i) / float64(workers*perWorker) * 40)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("Count = %d, want %d", got, workers*perWorker)
	}
	// The observation set is a permutation-invariant sum: every worker's
	// values are distinct, so the final sum is exact up to FP addition
	// order; compare with a tolerance.
	var want float64
	for i := 0; i < workers*perWorker; i++ {
		want += float64(i) / float64(workers*perWorker) * 40
	}
	if diff := math.Abs(h.Sum() - want); diff > 1e-6 {
		t.Errorf("Sum = %v, want %v (diff %v)", h.Sum(), want, diff)
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Errorf("Lint after concurrent observe: %v", err)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", "c")
	c.Add(5)
	c.Add(-3)
	c.Add(0)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

func TestGaugeAdd(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("g", "g")
	g.Set(10)
	g.Add(-4)
	g.Add(1.5)
	if g.Value() != 7.5 {
		t.Errorf("Value = %v, want 7.5", g.Value())
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.NewCounter("c", "c")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Errorf("nil counter Value = %d", c.Value())
	}
	g := r.NewGauge("g", "g")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Errorf("nil gauge Value = %v", g.Value())
	}
	h := r.NewHistogram("h", "h", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil histogram recorded")
	}
	v := r.NewCounterVec("v", "v", "reason")
	v.With("x").Inc()
	r.NewSnapshotFamilies([]Desc{{Name: "f", Type: "counter", Help: "f"}},
		func() []float64 { t.Error("read called on nil registry"); return nil })
	r.NewInfo("i", "i", map[string]string{"a": "b"})
	var b strings.Builder
	if n, err := r.WriteTo(&b); n != 0 || err != nil || b.Len() != 0 {
		t.Errorf("nil WriteTo = (%d, %v, %q)", n, err, b.String())
	}

	// Nil registry handler serves 404 — "metrics disabled" is visible to
	// a scraper, not an empty page.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 404 {
		t.Errorf("nil handler status = %d, want 404", rec.Code)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("c", "c")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type = %q, want %q", got, ContentType)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE c counter") {
		t.Errorf("body missing TYPE line:\n%s", rec.Body.String())
	}
}

// TestSnapshotFamiliesOneReadPerScrape: every family of one
// NewSnapshotFamilies call renders from the same read, taken once per
// scrape however the group's names interleave with other families, and
// a read shorter than the group is a programmer error.
func TestSnapshotFamiliesOneReadPerScrape(t *testing.T) {
	r := NewRegistry()
	reads := 0
	r.NewSnapshotFamilies([]Desc{
		{Name: "z_parts", Type: "gauge", Help: "Parts."},
		{Name: "a_total", Type: "counter", Help: "Total."},
	}, func() []float64 {
		reads++
		return []float64{float64(reads), float64(10 * reads)}
	})
	r.NewCounter("m_between", "Sorts between the group's families.")

	for scrape := 1; scrape <= 2; scrape++ {
		var b strings.Builder
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if reads != scrape {
			t.Fatalf("after scrape %d: %d reads, want %d", scrape, reads, scrape)
		}
		want := strings.Join([]string{
			`# HELP a_total Total.`,
			`# TYPE a_total counter`,
			`a_total ` + strconv.Itoa(10*scrape),
			`# HELP m_between Sorts between the group's families.`,
			`# TYPE m_between counter`,
			`m_between 0`,
			`# HELP z_parts Parts.`,
			`# TYPE z_parts gauge`,
			`z_parts ` + strconv.Itoa(scrape),
		}, "\n") + "\n"
		if b.String() != want {
			t.Errorf("scrape %d:\n--- got ---\n%s--- want ---\n%s", scrape, b.String(), want)
		}
	}

	short := NewRegistry()
	short.NewSnapshotFamilies([]Desc{{Name: "a", Type: "gauge", Help: "a"}, {Name: "b", Type: "gauge", Help: "b"}},
		func() []float64 { return []float64{1} })
	defer func() {
		if recover() == nil {
			t.Error("short snapshot read did not panic")
		}
	}()
	short.WriteTo(io.Discard)
}

func TestRegisterPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid name", func(r *Registry) { r.NewCounter("9bad", "x") }},
		{"empty name", func(r *Registry) { r.NewCounter("", "x") }},
		{"name with dash", func(r *Registry) { r.NewCounter("a-b", "x") }},
		{"duplicate", func(r *Registry) { r.NewCounter("dup", "x"); r.NewGauge("dup", "x") }},
		{"bad label", func(r *Registry) { r.NewCounterVec("v", "x", "le gal") }},
		{"colon label", func(r *Registry) { r.NewCounterVec("v", "x", "a:b") }},
		{"bad info label", func(r *Registry) { r.NewInfo("i", "x", map[string]string{"1x": "y"}) }},
		{"unsorted buckets", func(r *Registry) { r.NewHistogram("h", "x", []float64{1, 1}) }},
		{"snapshot histogram", func(r *Registry) {
			r.NewSnapshotFamilies([]Desc{{Name: "s", Type: "histogram", Help: "x"}}, nil)
		}},
		{"snapshot duplicate", func(r *Registry) {
			r.NewSnapshotFamilies([]Desc{{Name: "s", Type: "gauge", Help: "x"}, {Name: "s", Type: "counter", Help: "x"}}, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{3, "3"},
		{-2, "-2"},
		{0.25, "0.25"},
		{1e15, "1e+15"},
		{math.Inf(+1), "+Inf"},
	}
	for _, tc := range cases {
		got := formatValue(tc.in)
		if tc.in == math.Inf(+1) {
			// strconv renders +Inf; exposition buckets hardcode the
			// literal, so only sanity-check it is non-integral here.
			continue
		}
		if got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("c", "c", "reason")
	v.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WriteTo(&b)
	if !strings.Contains(b.String(), `c{reason="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Errorf("Lint rejected escaped labels: %v", err)
	}
}

func TestLintRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		frag string // substring the error must contain
	}{
		{"sample without TYPE", "orphan 1\n", "no preceding # TYPE"},
		{"TYPE before HELP", "# TYPE c counter\nc 1\n", "before its HELP"},
		{"bad type", "# HELP c x\n# TYPE c widget\n", "bad TYPE line"},
		{"duplicate family", "# HELP c x\n# TYPE c counter\nc 1\n# TYPE c counter\n", "duplicate TYPE"},
		{"duplicate help", "# HELP c x\n# HELP c y\n", "duplicate HELP"},
		{"bad value", "# HELP c x\n# TYPE c counter\nc lots\n", "bad value"},
		{"bad name", "# HELP c x\n# TYPE c counter\n9c 1\n", "invalid sample name"},
		{"malformed comment", "# BOGUS c x\n", "malformed comment"},
		{
			"non-monotone buckets",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
				`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n",
			"decrease",
		},
		{
			"unordered bounds",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 2` + "\n" +
				`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\n",
			"not increasing",
		},
		{
			"missing +Inf",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
			"no +Inf bucket",
		},
		{
			"count disagrees",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 3` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 2\n",
			"_count 2 != +Inf bucket 3",
		},
		{
			"only +Inf bucket",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n",
			"no finite bucket",
		},
		{
			"duplicate _count",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
				"h_sum 1\nh_count 2\nh_count 3\n",
			"duplicate _count",
		},
		{
			"duplicate _sum",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
				"h_sum 1\nh_sum 2\nh_count 3\n",
			"duplicate _sum",
		},
		{
			"bucket without le",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{job="x"} 1` + "\n",
			"without le label",
		},
		{
			"interleaved families",
			"# HELP a x\n# TYPE a counter\n# HELP b x\n# TYPE b counter\na 1\n",
			"outside its family block",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Lint([]byte(tc.in))
			if err == nil {
				t.Fatalf("Lint accepted:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not contain %q", err, tc.frag)
			}
		})
	}
}

func TestLintAcceptsTimestamps(t *testing.T) {
	in := "# HELP c x\n# TYPE c counter\nc 1 1712345678000\n"
	if err := Lint([]byte(in)); err != nil {
		t.Errorf("Lint rejected timestamped sample: %v", err)
	}
}
