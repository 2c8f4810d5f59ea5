package main

import (
	"reflect"
	"testing"
)

// draw takes a fixed mix of inputs from a generator, in the order a run
// takes them.
func draw(seed uint64) (studies []uint64, cold []any, hot []any) {
	g := newGen(seed)
	for i := 0; i < 3; i++ {
		studies = append(studies, g.freshSeed())
	}
	for _, r := range g.hotWorkingSet() {
		hot = append(hot, r)
	}
	for i := 0; i < 20; i++ {
		cold = append(cold, g.coldRequest())
	}
	return studies, cold, hot
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	s1, c1, h1 := draw(7)
	s2, c2, h2 := draw(7)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(h1, h2) {
		t.Fatal("the same workload seed drew different inputs")
	}
	s3, c3, h3 := draw(8)
	if reflect.DeepEqual(s1, s3) || reflect.DeepEqual(c1, c3) || reflect.DeepEqual(h1, h3) {
		t.Fatal("different workload seeds drew identical inputs")
	}
}

func TestColdRequestsNeverRepeatASeed(t *testing.T) {
	g := newGen(1)
	// Seeds handed out before the timed phase (set-up, studies) must not
	// come back either.
	seen := map[uint64]bool{g.freshSeed(): true}
	for _, r := range g.hotWorkingSet() {
		seen[r.Seed] = true
	}
	shapes := map[string]int{}
	for i := 0; i < 20000; i++ {
		r := g.coldRequest()
		if r.Seed == 0 || seen[r.Seed] {
			t.Fatalf("request %d reuses trace seed %d", i, r.Seed)
		}
		seen[r.Seed] = true
		if len(r.Useful) != smallGridDepths || len(r.Benchmarks) != smallGridBenchs {
			t.Fatalf("request %d is not a %dx%d grid: %+v", i, smallGridDepths, smallGridBenchs, r)
		}
		shapes[r.Machine+"/"+string(rune('0'+len(r.WindowStages)))]++
	}
	if len(shapes) != 3 {
		t.Fatalf("cold requests cover %d machine shapes, want 3: %v", len(shapes), shapes)
	}
}
