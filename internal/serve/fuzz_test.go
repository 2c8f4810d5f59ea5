package serve

// FuzzSweepRequest hammers the /sweep grid parser — the one spot where
// client-controlled floats meet index arithmetic — with both request
// forms and hostile values. The properties are exactly what the serving
// path relies on downstream: a request either fails fast or expands to a
// bounded, validated, deduplicated point list whose keys are the points'
// own content addresses, deterministically.

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func FuzzSweepRequest(f *testing.F) {
	seeds := []string{
		// The two request forms at paper-shaped values.
		`{"useful":[6,8],"benchmarks":["gcc"],"instructions":3000}`,
		`{"useful_min":2,"useful_max":16,"useful_step":0.5,"benchmarks":["swim"]}`,
		// Range endpoints that only land inclusively with index-based
		// generation: (16-2)/0.1 is 139.99999999999997.
		`{"useful_min":2,"useful_max":16,"useful_step":0.1,"benchmarks":["mcf"]}`,
		// Hostile floats: denormal step, overflow-adjacent range, a step
		// too small to advance the grid.
		`{"useful_min":2,"useful_max":16,"useful_step":5e-324,"benchmarks":["gcc"]}`,
		`{"useful_min":1e-310,"useful_max":1e308,"benchmarks":["gcc"]}`,
		`{"useful_min":4,"useful_max":1e17,"useful_step":0.001}`,
		// Duplicates in both spellings: the same depth twice, one
		// benchmark under its short and suite names.
		`{"useful":[8,8,8],"benchmarks":["176.gcc","gcc"],"instructions":2000}`,
		// Window variants and the full option surface.
		`{"useful":[4],"window":64,"window_stages":[1,2,4],"preselect":[2],"naive_pipelining":true}`,
		`{"machine":"inorder","useful":[8],"warmup":-1,"seed":18446744073709551615}`,
		// Degenerate grids.
		`{"useful":[]}`,
		`{"useful_min":16,"useful_max":2}`,
		`{"useful":[-1]}`,
		`{"useful_min":-5,"useful_max":-1}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	const version = "fuzz-v1"
	lim := Limits{MaxPoints: 64, MaxInstructions: 1 << 20}
	f.Fuzz(func(t *testing.T, body string) {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var req SweepRequest
		if err := dec.Decode(&req); err != nil {
			return // the HTTP layer rejects it before expansion
		}
		pts, err := req.points(version, lim)
		if err != nil {
			return // rejected: fine, as long as it neither spun nor panicked
		}
		if len(pts) == 0 {
			t.Fatalf("points returned success with an empty expansion for %q", body)
		}
		if len(pts) > lim.MaxPoints {
			t.Fatalf("expansion of %d points exceeds the %d limit", len(pts), lim.MaxPoints)
		}
		seen := make(map[string]bool, len(pts))
		for i, p := range pts {
			o := p.Options()
			if k := o.Key(version); k != p.Key() {
				t.Fatalf("point %d carries key %q but its options' address is %q", i, p.Key(), k)
			}
			if seen[p.Key()] {
				t.Fatalf("duplicate key %q survived dedup", p.Key())
			}
			seen[p.Key()] = true
			// Points are promised normalized+valid: the scheduler and the
			// cache key both depend on it. Resolving the carried options
			// again must succeed and be a fixed point.
			again, err := o.Resolve(version)
			if err != nil {
				t.Fatalf("point %d invalid after successful expansion: %v", i, err)
			}
			if again.Key() != p.Key() || !reflect.DeepEqual(again.Options(), o) {
				t.Fatalf("point %d is not normalization-stable: %+v vs %+v", i, o, again.Options())
			}
		}
		// Expansion is deterministic: the same request body yields the
		// same grid in the same order, and the exported projection
		// carries the same points and keys.
		opts, keys, err := req.Points(version, lim)
		if err != nil {
			t.Fatalf("second expansion failed: %v", err)
		}
		if len(keys) != len(pts) {
			t.Fatalf("second expansion has %d points, first %d", len(keys), len(pts))
		}
		for i := range keys {
			if keys[i] != pts[i].Key() || !reflect.DeepEqual(opts[i], pts[i].Options()) {
				t.Fatalf("expansion order unstable at %d: %q vs %q", i, pts[i].Key(), keys[i])
			}
		}
	})
}
