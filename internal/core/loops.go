package core

import (
	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Loop identifies one of the critical loops of Section 4.6 / Figure 8.
type Loop uint8

const (
	// IssueWakeup is the loop from issuing an instruction to waking its
	// dependents — the most performance-critical loop.
	IssueWakeup Loop = iota
	// LoadUse is the loop from issuing a load to delivering its value
	// (the DL1 access time).
	LoadUse
	// BranchMispredict is the loop from predicting a branch to resolving
	// the correct path.
	BranchMispredict
)

func (l Loop) String() string {
	switch l {
	case IssueWakeup:
		return "issue-wakeup"
	case LoadUse:
		return "load-use"
	default:
		return "branch-mispredict"
	}
}

// LoopPoint is one x-position of Figure 8: the loop extended by Extra
// cycles over its Alpha 21264 length, with the resulting IPC relative to
// the unmodified machine.
type LoopPoint struct {
	Extra       int
	RelativeIPC map[trace.Group]float64
	RelativeAll float64
}

// LoopSweep is the Figure 8 result for one critical loop.
type LoopSweep struct {
	Loop   Loop
	Points []LoopPoint
}

// CriticalLoopSensitivity reproduces Figure 8: run the out-of-order
// machine at the Alpha 21264's own latencies and stretch each critical
// loop independently by 0..maxExtra cycles, reporting IPC relative to the
// unstretched machine. Integer benchmarks are the paper's focus; per-group
// series are returned so the FP trends can be examined too. The baseline
// and every (loop, extra) variant run as one batch on the worker pool.
func CriticalLoopSensitivity(cfg SweepConfig, maxExtra int) []LoopSweep {
	cfg.fill()
	traces := cfg.traces()
	base := pipeline.Params{Machine: cfg.Machine, Timing: config.Alpha21264Timing(), Warmup: cfg.Warmup}

	loops := []Loop{IssueWakeup, LoadUse, BranchMispredict}
	mods := []func(*pipeline.Params){nil} // variant 0 is the unstretched baseline
	for _, loop := range loops {
		for extra := 0; extra <= maxExtra; extra++ {
			loop, e := loop, extra
			mods = append(mods, func(p *pipeline.Params) {
				switch loop {
				case IssueWakeup:
					p.ExtraWakeup = e
				case LoadUse:
					p.ExtraLoadUse = e
				case BranchMispredict:
					p.ExtraMispredict = e
				}
			})
		}
	}
	pts := runIPCVariants(cfg, traces, base, mods)
	baseline := pts[0]

	var sweeps []LoopSweep
	next := 1
	for _, loop := range loops {
		sw := LoopSweep{Loop: loop}
		for extra := 0; extra <= maxExtra; extra++ {
			pt := LoopPoint{Extra: extra}
			pt.RelativeIPC, pt.RelativeAll = pts[next].relativeTo(baseline)
			next++
			sw.Points = append(sw.Points, pt)
		}
		sweeps = append(sweeps, sw)
	}
	return sweeps
}
