package pipeline

import (
	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Per-instruction decode flags. One byte per instruction carries the
// class predicates the cycle loops branch on and the predictor's verdict,
// which the trace does not hold. Operands, classes and addresses are read
// from the trace itself.
const (
	dFP         uint8 = 1 << iota // executes on the floating-point cluster
	dBranch                       // conditional branch
	dLoad                         // data-cache read
	dStore                        // data-cache write
	dTaken                        // branch outcome: taken
	dMispredict                   // tournament predictor guessed wrong
)

// traceDecode is what a call derives from its instruction stream and
// every lane shares: the per-instruction flags byte, the consumer index,
// and — crucially — the tournament predictor's per-branch verdicts. The
// predictor sees branches in trace order in both cores regardless of
// timing, and Params never alters its tables, so its guess stream is a
// pure function of the trace: one training walk per call replaces one per
// lane. (PerfectBranches machines override the guess after the tables
// update, so they consume the same decode and just ignore dMispredict.)
//
// A decode is per-call state held in a Scratch: RunWith builds it into
// its own Scratch, RunBatch builds it once into its first lane's and hands
// it to every lane. It holds no pointer into the trace, so a Scratch kept
// for reuse never keeps a trace alive.
type traceDecode struct {
	flags []uint8

	// consumers is the trace's reverse dependence index, which only the
	// out-of-order core reads; nil when the decode was built for in-order
	// lanes alone. It points at csr, the index's reusable storage.
	consumers *trace.ConsumerIndex
	csr       trace.ConsumerIndex

	pred branch.Tournament // the training walk's predictor, Reset per build
}

// decode rebuilds the scratch's decode from tr — with the consumer index
// when withConsumers is set — reusing the storage of earlier builds, and
// returns it. The result is valid until the scratch's next decode.
func (s *Scratch) decode(tr *trace.Trace, withConsumers bool) *traceDecode {
	d := &s.dec
	insts := tr.Insts
	n := len(insts)
	if cap(d.flags) < n {
		d.flags = make([]uint8, n)
	}
	d.flags = d.flags[:n]
	d.consumers = nil
	if withConsumers {
		d.csr.Build(insts)
		d.consumers = &d.csr
	}

	pred := &d.pred
	pred.Reset()
	for i := range insts {
		in := &insts[i]
		var f uint8
		if in.Class.IsFP() {
			f |= dFP
		}
		switch in.Class {
		case isa.Load:
			f |= dLoad
		case isa.Store:
			f |= dStore
		case isa.Branch:
			f |= dBranch
			if in.Taken {
				f |= dTaken
			}
			guess := pred.Predict(in.PC)
			pred.Update(in.PC, in.Taken, guess)
			if guess != in.Taken {
				f |= dMispredict
			}
		}
		d.flags[i] = f
	}
	return d
}
