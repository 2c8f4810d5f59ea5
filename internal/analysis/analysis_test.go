package analysis_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// The loader is shared across tests: type-checking the standard
// library's export data once is what makes the suite fast.
var (
	loaderOnce sync.Once
	loaderVal  *analysis.Loader
	loaderErr  error
)

func loader(t *testing.T) *analysis.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = analysis.NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

func fixture(t *testing.T, l *analysis.Loader, rel string) *analysis.Package {
	t.Helper()
	p, err := l.LoadDir(filepath.Join("testdata", "src", rel))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	return p
}

// wants parses the fixture's "// want <rule>" comments into the set of
// expected "file:line:rule" keys, with file paths module-root-relative
// to match Finding.File.
func wants(t *testing.T, l *analysis.Loader, p *analysis.Package) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	ents, err := os.ReadDir(p.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(p.Dir, e.Name())
		rel, err := filepath.Rel(l.Root, path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, after, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			rule := strings.Fields(after)[0]
			out[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), line, rule)] = true
		}
		f.Close()
	}
	return out
}

func keysOf(fs []analysis.Finding) map[string]bool {
	out := map[string]bool{}
	for _, f := range fs {
		out[fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Rule)] = true
	}
	return out
}

func diffSets(t *testing.T, want, got map[string]bool) {
	t.Helper()
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("expected findings not reported:\n\t%s", strings.Join(missing, "\n\t"))
	}
	if len(extra) > 0 {
		t.Errorf("unexpected findings:\n\t%s", strings.Join(extra, "\n\t"))
	}
}

// TestAnalyzerFixtures runs each rule over its bad fixture (every
// "// want" line must be reported, nothing else) and its ok fixture
// (nothing at all may be reported).
func TestAnalyzerFixtures(t *testing.T) {
	l := loader(t)
	for _, tc := range []struct {
		rule    string
		fixture string
	}{
		{"nondeterminism", "nondet"},
		{"mapiter", "mapiter"},
		{"traceimmutable", "traceimmutable"},
		{"obsinert", "obsinert"},
		{"goroutinescope", "goroutinescope"},
		{"lockorder", "lockorder"},
		{"ctxcancel", "ctxcancel"},
		{"gojoin", "gojoin"},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			az, unknown := analysis.ByName([]string{tc.rule})
			if az == nil {
				t.Fatalf("unknown analyzer %q", unknown)
			}

			bad := fixture(t, l, tc.fixture+"/bad")
			got := analysis.Run(l, []*analysis.Package{bad}, az, analysis.Options{IgnoreScope: true})
			want := wants(t, l, bad)
			if len(want) == 0 {
				t.Fatalf("fixture %s/bad has no // want comments", tc.fixture)
			}
			diffSets(t, want, keysOf(got))

			ok := fixture(t, l, tc.fixture+"/ok")
			if got := analysis.Run(l, []*analysis.Package{ok}, az, analysis.Options{IgnoreScope: true}); len(got) > 0 {
				t.Errorf("ok fixture produced findings: %v", got)
			}
		})
	}
}

// TestScopes pins each rule's package scope to the invariant it
// encodes: where simulation determinism is enforced, where the
// runtime layers are exempt, and where a rule applies module-wide.
func TestScopes(t *testing.T) {
	appl := map[string]func(string) bool{}
	for _, a := range analysis.Analyzers() {
		if a.Appl == nil {
			// A nil Appl applies everywhere (gojoin).
			appl[a.Name] = func(string) bool { return true }
			continue
		}
		appl[a.Name] = a.Appl
	}
	for _, tc := range []struct {
		rule, rel string
		want      bool
	}{
		{"nondeterminism", "internal/core", true},
		{"nondeterminism", "internal/exec", true},
		{"nondeterminism", "internal/obs", true},
		{"nondeterminism", "internal/analysis", true},
		{"nondeterminism", "internal/obs/promtext", true},
		{"nondeterminism", "cmd/experiments", false},
		{"mapiter", "internal/core", true},
		{"mapiter", "internal/obs", false},
		{"mapiter", "internal/analysis", true},
		{"mapiter", "internal/obs/promtext", true},
		{"traceimmutable", "internal/trace", false},
		{"traceimmutable", "internal/pipeline", true},
		{"traceimmutable", "cmd/experiments", true},
		{"obsinert", "internal/experiments", true},
		{"obsinert", "internal/obs", false},
		{"obsinert", "internal/obs/promtext", false},
		{"obsinert", "internal/serve", false},
		{"goroutinescope", "internal/exec", false},
		{"goroutinescope", "internal/obs", false},
		{"goroutinescope", "internal/obs/promtext", true},
		{"goroutinescope", "internal/core", true},
		{"goroutinescope", "cmd/experiments", true},
		{"lockorder", "internal/serve", true},
		{"lockorder", "internal/store", true},
		{"lockorder", "internal/core", false},
		{"ctxcancel", "internal/serve", true},
		{"ctxcancel", "internal/store", true},
		{"ctxcancel", "internal/exec", false},
		{"gojoin", "internal/serve", true},
		{"gojoin", "cmd/sweepd", true},
		{"gojoin", "internal/core", true},
	} {
		if got := appl[tc.rule](tc.rel); got != tc.want {
			t.Errorf("%s.Appl(%q) = %v, want %v", tc.rule, tc.rel, got, tc.want)
		}
	}
}

// TestModuleClean is the compile-time form of the flagship guarantees:
// the full rule suite over the whole module must report nothing. If
// this fails, either a real invariant violation landed or a new
// intentional site is missing its justified directive.
func TestModuleClean(t *testing.T) {
	l := loader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadModule found only %d packages; the walk is broken", len(pkgs))
	}
	findings := analysis.Run(l, pkgs, analysis.Analyzers(), analysis.Options{})
	for _, f := range findings {
		t.Errorf("module not lint-clean: %s", f)
	}
}

func TestFindingString(t *testing.T) {
	f := analysis.Finding{File: "internal/core/engine.go", Line: 42, Col: 7, Rule: "mapiter", Message: "range over map"}
	const want = "internal/core/engine.go:42: mapiter: range over map"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
