package pipeline

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
)

// The golden Stats grid pins the simulator's exact output across the
// parameter space the paper exercises: pipeline depth × window
// segmentation × partitioned selection × naive pipelining × in-order.
// The goldens in testdata/golden_stats.json were captured from the seed
// broadcast-scan simulator (before the event-driven wakeup and scratch
// reuse landed), so this test proves the optimized path reproduces the
// seed machine field-for-field. Run with -update to re-capture after an
// intentional model change.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stats.json from the current simulator")

// goldenStats mirrors the seed-era Stats fields. Diagnostics added after
// the seed (e.g. wakeup counters) are deliberately excluded: they did not
// exist when the goldens were captured and are pinned by their own tests.
type goldenStats struct {
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`

	BranchLookups    uint64 `json:"branch_lookups"`
	BranchMispredict uint64 `json:"branch_mispredict"`
	L1Hits           uint64 `json:"l1_hits"`
	L2Hits           uint64 `json:"l2_hits"`
	MemAccesses      uint64 `json:"mem_accesses"`
	WindowFullStalls uint64 `json:"window_full_stalls"`
	ROBFullStalls    uint64 `json:"rob_full_stalls"`

	SimCycles          uint64 `json:"sim_cycles"`
	SumWindowOcc       uint64 `json:"sum_window_occ"`
	SumIssued          uint64 `json:"sum_issued"`
	FetchBlockedCycles uint64 `json:"fetch_blocked_cycles"`
}

func toGolden(s Stats) goldenStats {
	return goldenStats{
		Instructions:       s.Instructions,
		Cycles:             s.Cycles,
		IPC:                s.IPC,
		BranchLookups:      s.BranchLookups,
		BranchMispredict:   s.BranchMispredict,
		L1Hits:             s.L1Hits,
		L2Hits:             s.L2Hits,
		MemAccesses:        s.MemAccesses,
		WindowFullStalls:   s.WindowFullStalls,
		ROBFullStalls:      s.ROBFullStalls,
		SimCycles:          s.SimCycles,
		SumWindowOcc:       s.SumWindowOcc,
		SumIssued:          s.SumIssued,
		FetchBlockedCycles: s.FetchBlockedCycles,
	}
}

// goldenCase is one cell of the equivalence grid.
type goldenCase struct {
	name string
	p    Params
}

// goldenGrid enumerates the grid at one benchmark: every machine variant
// at every depth. Names are stable — they key the golden file.
func goldenGrid() []goldenCase {
	type variant struct {
		name string
		mod  func(*Params)
	}
	variants := []variant{
		{"base", nil},
		{"ws4", func(p *Params) {
			p.Machine.UnifiedWindow = 32
			p.WindowStages = 4
		}},
		{"ws4-preselect", func(p *Params) {
			p.Machine.UnifiedWindow = 32
			p.WindowStages = 4
			p.PreSelect = []int{5, 2, 1}
		}},
		{"ws4-naive", func(p *Params) {
			p.Machine.UnifiedWindow = 32
			p.WindowStages = 4
			p.NaivePipelining = true
		}},
		{"inorder", func(p *Params) {
			p.Machine.InOrder = true
		}},
	}

	var cases []goldenCase
	for _, useful := range []float64{4, 6, 8} {
		for _, v := range variants {
			m := config.Alpha21264()
			clk := fo4.Clock{Useful: useful, Overhead: fo4.PaperOverhead}
			p := Params{Machine: m, Timing: m.Resolve(clk), Warmup: 8000}
			if v.mod != nil {
				v.mod(&p)
				// Machine edits (unified window, in-order) change the
				// resolved timing inputs only through the clock, which is
				// fixed here, so re-resolving is unnecessary; the seed
				// studies apply mods to Params the same way.
			}
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("u%g/%s", useful, v.name),
				p:    p,
			})
		}
	}
	return cases
}

func TestGoldenStatsGrid(t *testing.T) {
	path := filepath.Join("testdata", "golden_stats.json")
	got := map[string]goldenStats{}
	for _, bench := range []string{"176.gcc", "171.swim", "177.mesa"} {
		tr := getTrace(t, bench, 40000)
		grid := goldenGrid()
		params := make([]Params, len(grid))
		for i, c := range grid {
			got[bench+"/"+c.name] = toGolden(RunWith(c.p, tr, nil))
			params[i] = c.p
		}
		// The batched dispatch must reproduce the same goldens: every
		// variant of this benchmark through one RunBatch walk, compared
		// cell by cell against the per-cell path captured above.
		bs := NewBatchScratch()
		for i, s := range RunBatch(params, tr, bs.Lanes(len(params))) {
			if g := toGolden(s); g != got[bench+"/"+grid[i].name] {
				t.Errorf("%s/%s: batched stats diverge from per-cell run:\n got %+v\nwant %+v",
					bench, grid[i].name, g, got[bench+"/"+grid[i].name])
			}
		}
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatalf("marshal goldens: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatalf("write goldens: %v", err)
		}
		t.Logf("rewrote %s with %d cases", path, len(got))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read goldens (run with -update to capture): %v", err)
	}
	want := map[string]goldenStats{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, grid has %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in golden file but not in grid", name)
			continue
		}
		if g != w {
			t.Errorf("%s: stats diverge from seed simulator:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
