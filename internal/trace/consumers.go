package trace

// ConsumerIndex is the reverse dependence adjacency of a trace in
// compressed-sparse-row form: the consumers of instruction i are
// Edges[Offsets[i]:Offsets[i+1]], in program order. An instruction with
// both source operands fed by the same producer appears twice in that
// producer's edge list (once per operand), so edge count equals the
// number of register-source dependences in the trace.
//
// The simulators use the index to wake exactly a completing producer's
// consumers instead of broadcasting a tag comparison across every issue
// window entry — the same O(window) scan per issued instruction whose
// circuit cost the paper's Section 5 segmented window attacks.
type ConsumerIndex struct {
	Offsets []int32 // len(Insts)+1 row starts into Edges
	Edges   []int32 // consumer trace indices, grouped by producer
}

// Consumers returns the edge list of producer i.
func (ci *ConsumerIndex) Consumers(i int32) []int32 {
	return ci.Edges[ci.Offsets[i]:ci.Offsets[i+1]]
}

// ConsumerIndexOf builds the trace's consumer index. Every call is a
// fresh build; callers that build repeatedly reuse storage with Build.
func (t *Trace) ConsumerIndexOf() *ConsumerIndex {
	ci := &ConsumerIndex{}
	ci.Build(t.Insts)
	return ci
}

// Build fills ci with the consumer index of insts, reusing ci's storage:
// count the out-degree of every producer into the row offsets, prefix-sum
// them into row starts, then fill each row through its start, which
// leaves every offset at its row's end, and shift the offsets back by
// one row. Dependencies always point backwards (see Inst), so the result
// is a DAG adjacency whose edge lists are sorted by consumer index.
// Edges is sized for the 2·len(insts) edges an instruction stream of that
// length can have at most, so rebuilding for any trace no longer than the
// longest one built so far allocates nothing.
func (ci *ConsumerIndex) Build(insts []Inst) {
	n := len(insts)
	if cap(ci.Offsets) < n+1 {
		ci.Offsets = make([]int32, n+1)
	}
	if cap(ci.Edges) < 2*n {
		ci.Edges = make([]int32, 2*n)
	}
	offsets := ci.Offsets[:n+1]
	clear(offsets)
	for i := range insts {
		if s := insts[i].Src1; s >= 0 {
			offsets[s+1]++
		}
		if s := insts[i].Src2; s >= 0 {
			offsets[s+1]++
		}
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	edges := ci.Edges[:offsets[n]]
	for i := range insts {
		if s := insts[i].Src1; s >= 0 {
			edges[offsets[s]] = int32(i)
			offsets[s]++
		}
		if s := insts[i].Src2; s >= 0 {
			edges[offsets[s]] = int32(i)
			offsets[s]++
		}
	}
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0
	ci.Offsets, ci.Edges = offsets, edges
}
