package pipeline

import (
	"testing"
)

// Microbenchmarks for the simulator hot loop: one RunWith per iteration on
// a Scratch held across iterations (steady state), one sub-benchmark per
// workload class mix (the three groups the paper's figures split on) and
// per window variant. ReportAllocs makes the steady-state allocation
// behaviour a first-class benchmark output, so a regression shows up
// per-package instead of hiding inside the end-to-end figure benchmarks;
// cmd/benchdiff compares runs.

// benchMixes names one benchmark per group: integer, vector FP, and
// non-vector FP exercise the branchy, latency-tolerant and mixed paths of
// the issue loop respectively.
var benchMixes = []string{"176.gcc", "171.swim", "177.mesa"}

func benchRun(b *testing.B, mod func(*Params)) {
	for _, name := range benchMixes {
		b.Run(name, func(b *testing.B) {
			tr := getTrace(b, name, 40000)
			p := paramsAt(6)
			if mod != nil {
				mod(&p)
			}
			scr := NewScratch()
			RunWith(p, tr, scr) // grow the arenas outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			var s Stats
			for i := 0; i < b.N; i++ {
				s = RunWith(p, tr, scr)
			}
			b.ReportMetric(s.IPC, "IPC")
		})
	}
}

func BenchmarkRunOutOfOrder(b *testing.B) {
	benchRun(b, nil)
}

func BenchmarkRunSegmented(b *testing.B) {
	benchRun(b, func(p *Params) {
		p.Machine.UnifiedWindow = 32
		p.WindowStages = 4
	})
}

func BenchmarkRunPreSelect(b *testing.B) {
	benchRun(b, func(p *Params) {
		p.Machine.UnifiedWindow = 32
		p.WindowStages = 4
		p.PreSelect = []int{5, 2, 1}
	})
}

func BenchmarkRunInOrder(b *testing.B) {
	benchRun(b, func(p *Params) {
		p.Machine.InOrder = true
	})
}
