package core

import "testing"

// keyGolden pins PointOptions.Key byte for byte. The keys address every
// result a durable store has ever written, so the canonical encoding may
// not drift: each literal below was computed by the fmt-based encoder
// that defined pointKeySchema v1. The table sets every field, spells
// machines and benchmarks through their aliases, and uses both sentinels
// and a seed above 2^63.
var keyGolden = []struct {
	name    string
	version string
	o       PointOptions
	key     string
}{
	{"defaults", "v", PointOptions{Benchmark: "gcc", Useful: 8}, "e30860f98a68ce5d9f075d0f90bc9e890a0eb1dd7181fb1e9dbdae2c180d4b95"},
	{"aliases and case", "dev", PointOptions{Machine: " Alpha21264 ", Benchmark: "  176.GCC ", Useful: 8}, "4f4bd9b957e5b2f1cde84cca98a24baaa6998943f18f14fdedc209b76cafa8b7"},
	{"in-order alias", "v", PointOptions{Machine: "In-Order", Benchmark: "MCF", Useful: 2.5, Instructions: 20000}, "1e6b6390593ffc0d18857ee8a0c96c1c4f47567aa51ea1a623a6b6b2e027cbf4"},
	{"no overhead no warmup", "v", PointOptions{Benchmark: "swim", Useful: 6, OverheadFO4: NoOverhead, Warmup: NoWarmup}, "6c5ae7e3abcd5ebf75944c81383ce38f62f3c337b81d1b64090a74bbde567eb9"},
	{"scaled overhead", "v", PointOptions{Benchmark: "art", Useful: 3.25, OverheadFO4: 3.6, Warmup: 500, Instructions: 4000}, "61773a923c0a2b0df9af75ed6794e424894fde4c3c36c738295db10e0fae1b8b"},
	{"segmented preselect", "v1.2.3", PointOptions{
		Benchmark: "181.mcf", Useful: 4, Window: 32, WindowStages: 4,
		PreSelect: []int{8, 16, 1024}, NaivePipelining: true,
		Instructions: 60000, Warmup: 12000, Seed: 42,
	}, "0a1996553872045d13798c80cb911a96e812690029c4e85bef9f518ffbc4f627"},
	{"every field", "code-7f3a", PointOptions{
		Machine: "inorder", Benchmark: "Lucas", Useful: 15.999999999999998,
		OverheadFO4: 1e-3, Window: 1024, WindowStages: 32, PreSelect: []int{1},
		NaivePipelining: true, Instructions: 1 << 20, Warmup: 1, Seed: 1<<64 - 1,
	}, "250debd1d5802138da76eb14b58002b6793183e528c42a1ec2aa129ef9e8603d"},
	{"large seed", "", PointOptions{Benchmark: "gzip", Useful: 64, Seed: 1 << 63}, "877b849cc1f3513c9b85274ca0b144ef47f647d3942cc68c528d35d2b3cad7aa"},
	{"unknown benchmark", "v", PointOptions{Benchmark: " Doom ", Useful: 1e-9, Instructions: -5}, "d9ebbd86c9845a1fb39d60edc59242bcd1c8c9ec132e161b330a6e85073f1c0e"},
	{"unknown machine", "v", PointOptions{Machine: "VAX", Benchmark: "eon", Useful: 7, Window: -1, PreSelect: []int{-2, 0}}, "59255f31f75dad0e38de414bc9b9bdba5e01c272e59ffd29c3c7a194d73ce198"},
}

func TestKeyGolden(t *testing.T) {
	for _, c := range keyGolden {
		if got := c.o.Key(c.version); got != c.key {
			t.Errorf("%s: Key = %s, want %s", c.name, got, c.key)
		}
	}
}
