package trace

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

func TestConsumerIndexMatchesSources(t *testing.T) {
	p, _ := ByName("176.gcc")
	tr := p.Generate(20000, 1)
	ci := tr.ConsumerIndexOf()

	if got, want := len(ci.Offsets), len(tr.Insts)+1; got != want {
		t.Fatalf("offsets length %d, want %d", got, want)
	}

	// Forward check: every edge corresponds to a real source operand.
	deps := 0
	for i, in := range tr.Insts {
		for _, s := range []int32{in.Src1, in.Src2} {
			if s < 0 {
				continue
			}
			deps++
			found := false
			for _, c := range ci.Consumers(s) {
				if c == int32(i) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("inst %d depends on %d but is not in its consumer list", i, s)
			}
		}
	}
	if deps != len(ci.Edges) {
		t.Fatalf("index has %d edges, trace has %d register-source dependences", len(ci.Edges), deps)
	}

	// Reverse check: edge lists are sorted and every edge points forward
	// to an instruction that really names the producer.
	for p := int32(0); p < int32(len(tr.Insts)); p++ {
		prev := int32(-1)
		for _, c := range ci.Consumers(p) {
			if c <= p {
				t.Fatalf("producer %d has consumer %d not strictly after it", p, c)
			}
			if c < prev {
				t.Fatalf("producer %d consumer list not sorted: %d after %d", p, c, prev)
			}
			prev = c
			in := tr.Insts[c]
			if in.Src1 != p && in.Src2 != p {
				t.Fatalf("edge %d→%d has no matching source operand", p, c)
			}
		}
	}
}

func TestConsumerIndexDoubleEdgeForSharedProducer(t *testing.T) {
	tr := &Trace{Name: "dup", Insts: []Inst{
		{Class: isa.IntAlu, Src1: -1, Src2: -1},
		{Class: isa.IntAlu, Src1: 0, Src2: 0},
	}}
	ci := tr.ConsumerIndexOf()
	got := ci.Consumers(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("consumers of 0 = %v, want [1 1] (one edge per operand)", got)
	}
}

// TestConsumerIndexBuildReusesStorage pins Build's reuse: an index built
// over the storage a longer trace left behind — stale offsets and edges
// included — equals a fresh build, and allocates nothing.
func TestConsumerIndexBuildReusesStorage(t *testing.T) {
	gcc, _ := ByName("176.gcc")
	swim, _ := ByName("171.swim")
	long, short := gcc.Generate(20000, 3), swim.Generate(5000, 7)

	var ci ConsumerIndex
	ci.Build(long.Insts)
	if allocs := testing.AllocsPerRun(3, func() { ci.Build(short.Insts) }); allocs != 0 {
		t.Errorf("rebuild over longer storage allocates %.1f objects, want 0", allocs)
	}
	if fresh := short.ConsumerIndexOf(); !reflect.DeepEqual(ci, *fresh) {
		t.Fatalf("reused index differs from a fresh build: %d/%d offsets, %d/%d edges",
			len(ci.Offsets), len(fresh.Offsets), len(ci.Edges), len(fresh.Edges))
	}
}

func TestConsumerIndexEmptyTrace(t *testing.T) {
	tr := &Trace{Name: "empty"}
	ci := tr.ConsumerIndexOf()
	if len(ci.Offsets) != 1 || len(ci.Edges) != 0 {
		t.Fatalf("empty trace index = %+v, want one offset and no edges", ci)
	}
}
