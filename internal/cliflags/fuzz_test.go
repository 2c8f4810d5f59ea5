package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// FuzzSimFlags drives the shared flag surface — the external input
// cmd/experiments parses first — through arbitrary argument
// vectors. Parsing may reject, but it must never panic, and an
// accepted parse must yield options that honor the documented
// invariants.
func FuzzSimFlags(f *testing.F) {
	for _, seed := range []string{
		"",
		"-n 1000 -seed 7 -workers 2 -bench gcc -json",
		"-n 0",
		"-n -5",
		"-workers -1",
		"-bench nosuchbenchmark",
		"-seed 18446744073709551615",
		"-n 2147483647 -workers 64 -bench mesa",
		"-json -json",
		"--n=10 --seed=0x10",
		"-n", // missing value
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s := RegisterOn(fs, 10000)
		if err := fs.Parse(strings.Fields(input)); err != nil {
			return // rejected by the flag package: fine
		}
		o, err := s.Options()
		if err != nil {
			if err.Error() == "" {
				t.Error("Options rejected the flags with an empty message")
			}
			return
		}
		if o.Instructions <= 0 {
			t.Errorf("accepted options carry non-positive Instructions %d (input %q)", o.Instructions, input)
		}
		if o.Workers < 0 {
			t.Errorf("accepted options carry negative Workers %d (input %q)", o.Workers, input)
		}
	})
}
