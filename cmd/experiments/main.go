// Command experiments runs the paper's evaluation — every table and
// figure — and prints the paper-vs-measured report that EXPERIMENTS.md
// records.
//
//	experiments [flags] [study ...]
//
// With no study names it runs the whole table below, in order; otherwise
// it runs the named studies in the order given. An unknown name exits 2
// and lists the valid ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/experiments"
)

var (
	latchStep   = flag.Float64("latchstep", 2.0, "latch sweep granularity, ps")
	skipCircuit = flag.Bool("nocircuit", false, "skip the (slow) circuit-level experiments (table1)")
)

// A study is one table or figure of the evaluation. Its name is both the
// CLI selector and the span the run manifest records for it.
type study struct {
	name string
	run  func(experiments.Options) cliflags.Result
}

// traced adapts a driver that opens its own span under the study's name.
func traced[R cliflags.Result](name string, f func(experiments.Options) R) study {
	return study{name, func(o experiments.Options) cliflags.Result { return f(o) }}
}

// fixed adapts a driver that takes no simulation options and so records
// no span of its own: the span opens here.
func fixed[R cliflags.Result](name string, f func() R) study {
	return study{name, func(o experiments.Options) cliflags.Result {
		defer o.Obs.Study(name)()
		return f()
	}}
}

// studies is the evaluation in report order.
var studies = []study{
	fixed("figure1", experiments.RunFigure1),
	fixed("table1", func() experiments.Table1Result { return experiments.RunTable1(*latchStep) }),
	fixed("table3", experiments.RunTable3),
	fixed("structure-summary", experiments.RunStructureSummary),
	traced("figure4a", experiments.RunFigure4a),
	traced("figure4b", experiments.RunFigure4b),
	traced("figure5", experiments.RunFigure5),
	traced("figure6", experiments.RunFigure6),
	traced("figure7", experiments.RunFigure7),
	traced("figure8", experiments.RunFigure8),
	traced("figure11", experiments.RunFigure11),
	traced("segmented-select", experiments.RunSegmentedSelect),
	traced("cray1s", experiments.RunCray1S),
	traced("wire-study", experiments.RunWireStudy),
	traced("ablation", experiments.RunAblation),
	traced("headline", experiments.RunHeadline),
	traced("workload-table", experiments.RunWorkloadTable),
}

func namesOf(ss []study) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.name
	}
	return names
}

// selectStudies resolves the positional arguments against the table:
// all of it when none are given, else the named studies in argument
// order. -nocircuit drops table1 either way.
func selectStudies(args []string) ([]study, error) {
	picked := studies
	if len(args) > 0 {
		picked = make([]study, len(args))
		for i, a := range args {
			j := slices.IndexFunc(studies, func(s study) bool { return s.name == a })
			if j < 0 {
				return nil, fmt.Errorf("unknown study %q", a)
			}
			picked[i] = studies[j]
		}
	}
	if *skipCircuit {
		picked = slices.DeleteFunc(slices.Clone(picked), func(s study) bool { return s.name == "table1" })
	}
	return picked, nil
}

func main() {
	sim := cliflags.Register()
	tel := cliflags.RegisterTel()
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] [study ...]")
		fmt.Fprintln(os.Stderr, "studies (default: all, in this order):", strings.Join(namesOf(studies), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	picked, err := selectStudies(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		flag.Usage()
		os.Exit(2)
	}
	o, run := cliflags.MustRun("experiments", sim, tel)
	run.SetConfig("studies", namesOf(picked))

	results := make([]cliflags.Result, len(picked))
	for i, s := range picked {
		results[i] = s.run(o)
	}
	cliflags.Emit(*sim.JSON, results...)
	cliflags.MustClose(run)
}
