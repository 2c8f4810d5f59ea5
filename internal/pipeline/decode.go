package pipeline

import (
	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Per-instruction decode flags. One byte per instruction carries
// everything the cycle loops branch on, so the hot paths test a bit
// instead of loading a 32-byte trace.Inst and re-deriving class
// predicates per lane.
const (
	dFP         uint8 = 1 << iota // executes on the floating-point cluster
	dBranch                       // conditional branch
	dLoad                         // data-cache read
	dStore                        // data-cache write
	dTaken                        // branch outcome: taken
	dMispredict                   // tournament predictor guessed wrong
)

// traceDecode is the depth-invariant decode of one instruction stream in
// structure-of-arrays form: class predicates folded into flags, operand
// producers, data addresses, and — crucially — the tournament predictor's
// per-branch verdicts. The predictor sees branches in trace order in both
// cores regardless of timing, and Params never alters its tables, so its
// guess stream is a pure function of the trace: one training walk per call
// replaces one per lane. (PerfectBranches machines override the guess
// after the tables update, so they consume the same decode and just
// ignore dMispredict.)
//
// A decode is per-call state held in a Scratch: RunWith builds it into
// its own Scratch, RunBatch builds it once into its first lane's and hands
// it to every lane. It holds no pointer into the trace, so a Scratch kept
// for reuse never keeps a trace alive.
type traceDecode struct {
	flags []uint8
	class []isa.Class
	src1  []int32
	src2  []int32
	addr  []uint64

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
		d.class = make([]isa.Class, n)
		d.src1 = make([]int32, n)
		d.src2 = make([]int32, n)
		d.addr = make([]uint64, n)
	}
	d.flags, d.class, d.src1, d.src2, d.addr = d.flags[:n], d.class[:n], d.src1[:n], d.src2[:n], d.addr[:n]
	d.consumers = nil
	if withConsumers {
		d.csr.Build(insts)
		d.consumers = &d.csr
	}

	pred := &d.pred
	pred.Reset()
	for i := range insts {
		in := &insts[i]
		d.class[i] = in.Class
		d.src1[i] = in.Src1
		d.src2[i] = in.Src2
		d.addr[i] = in.Addr
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
