// Package analysis is a stdlib-only static-analysis framework that
// proves the repo's cross-cutting invariants per commit instead of
// sampling them at runtime. The two flagship regression guarantees —
// bit-for-bit worker-count-invariant sweeps and byte-for-byte telemetry
// inertness — are structural properties of the code: simulation
// packages must not read clocks, iterate maps, mutate shared traces,
// read telemetry, or spawn goroutines. Each rule is an Analyzer run
// over every package of the module, loaded and type-checked with
// go/parser + go/types (no go/analysis, no x/tools).
//
// Violations that are intentional (the telemetry layer's own clock
// reads, for instance) are suppressed in place with a directive that
// must name the rule and justify itself:
//
//	start := time.Now() //reprolint:allow nondeterminism: wall time feeds the manifest only
//
// Directives fail closed: an unknown rule name, a missing
// justification, or a directive that matches no finding is itself
// reported, so a stale or typoed suppression can never silently widen.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// An Analyzer is one named rule. Per-package rules implement Run, which
// inspects a single type-checked package; whole-program rules implement
// RunModule, which sees every selected package at once plus the
// interprocedural call graph. A rule may implement either or both.
type Analyzer struct {
	// Name is the rule name, as printed in findings and matched by
	// //reprolint:allow directives.
	Name string
	// Doc is a one-line description of the invariant the rule encodes.
	Doc string
	// Appl reports whether the rule applies to a package, identified by
	// its module-root-relative directory ("" is the module root,
	// "internal/core", "cmd/experiments", ...). A nil Appl applies
	// everywhere. Per-package Run passes skip packages outside the
	// scope; module rules consult it through ModulePass.InScope.
	Appl func(rel string) bool
	// Run inspects one package and reports findings. May be nil for
	// module-only rules.
	Run func(*Pass)
	// RunModule inspects the whole selected package set with the call
	// graph available. May be nil for per-package rules.
	RunModule func(*ModulePass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	// Mod is the module path; analyzers use it to identify module types
	// (trace.Trace, obs.Recorder) without hardcoding the module name.
	Mod string

	root     string
	rule     string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, makeFinding(p.Fset, p.root, p.rule, pos, nil, format, args...))
}

// ModulePass carries one whole-program rule's view: every selected
// package, the call graph over them, and the reporting sink.
type ModulePass struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Graph *CallGraph
	// Mod is the module path; rules use it to identify module types
	// without hardcoding the module name.
	Mod string

	root        string
	rule        string
	ignoreScope bool
	findings    *[]Finding
}

// InScope applies the analyzer's package predicate, honoring the
// fixture tests' IgnoreScope option.
func (mp *ModulePass) InScope(appl func(string) bool, rel string) bool {
	return mp.ignoreScope || appl == nil || appl(rel)
}

// Reportf records a finding at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	mp.ReportChain(pos, nil, format, args...)
}

// ReportChain records a finding at pos carrying the call chain that
// makes the violation reachable (entry point first, violating function
// last).
func (mp *ModulePass) ReportChain(pos token.Pos, chain []string, format string, args ...any) {
	*mp.findings = append(*mp.findings, makeFinding(mp.Fset, mp.root, mp.rule, pos, chain, format, args...))
}

func makeFinding(fset *token.FileSet, root, rule string, pos token.Pos, chain []string, format string, args ...any) Finding {
	position := fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return Finding{
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
		Chain:   chain,
	}
}

// Finding is one reported violation. Chain, when present, is the call
// chain that makes a reachability violation concrete: entry point
// first, the function containing the flagged site last.
type Finding struct {
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Col     int      `json:"col"`
	Rule    string   `json:"rule"`
	Message string   `json:"message"`
	Chain   []string `json:"chain,omitempty"`
}

// String renders the canonical "file:line: rule: message" form, with
// the call chain appended when the finding carries one.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Rule, f.Message)
	if len(f.Chain) > 0 {
		s += " [via " + strings.Join(f.Chain, " -> ") + "]"
	}
	return s
}

// DirectiveRule is the pseudo-rule name under which malformed or
// unmatched suppression directives are reported. It is not a real
// analyzer, so directive errors can never themselves be suppressed.
const DirectiveRule = "directive"

// directivePrefix introduces a suppression comment. The full syntax is
//
//	//reprolint:allow <rule>: <why>
//
// placed either at the end of the flagged line or on its own line
// immediately above it.
const directivePrefix = "//reprolint:allow"

// directive is one parsed //reprolint:allow comment.
type directive struct {
	file string // root-relative, matching Finding.File
	line int
	rule string
	why  string
}

// Options configures a Run.
type Options struct {
	// IgnoreScope applies every analyzer to every package regardless of
	// its Appl predicate. Fixture tests use it, since fixture packages
	// live under testdata and no real scope matches them.
	IgnoreScope bool

	// Now, when non-nil, is the clock RunStats times each rule with.
	// The clock is injected by the driver (cmd/reprolint) rather than
	// read here so this package stays inside its own nondeterminism
	// scope; a nil Now leaves every duration zero.
	Now func() time.Time
}

// RuleStat is one rule's runtime accounting from a RunStats call. The
// pseudo-rule "callgraph" carries the one-time graph construction cost
// shared by every module rule.
type RuleStat struct {
	Rule     string  `json:"rule"`
	Seconds  float64 `json:"seconds"`
	Findings int     `json:"findings"`
}

// Run applies the analyzers to the packages, resolves suppression
// directives, and returns the surviving findings sorted by position.
// Directive problems — unknown rule, missing justification, or a
// directive that suppresses nothing — come back as findings under the
// "directive" pseudo-rule, so the suite fails closed.
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer, opts Options) []Finding {
	findings, _ := RunStats(l, pkgs, analyzers, opts)
	return findings
}

// RunStats is Run plus per-rule timing and post-suppression finding
// counts, for the lint-stats surface. Durations are zero unless
// opts.Now is set.
func RunStats(l *Loader, pkgs []*Package, analyzers []*Analyzer, opts Options) ([]Finding, []RuleStat) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	now := opts.Now
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}

	var stats []RuleStat
	var raw []Finding

	// The call graph is built once, lazily, the first time a module
	// rule asks for it; its cost is reported as its own stat row.
	var graph *CallGraph
	graphOf := func() *CallGraph {
		if graph == nil {
			t0 := now()
			graph = NewCallGraph(l.Fset(), l.ModulePath, pkgs)
			stats = append(stats, RuleStat{Rule: "callgraph", Seconds: now().Sub(t0).Seconds()})
		}
		return graph
	}

	for _, a := range analyzers {
		t0 := now()
		if a.Run != nil {
			for _, pkg := range pkgs {
				if !opts.IgnoreScope && a.Appl != nil && !a.Appl(pkg.Rel) {
					continue
				}
				pass := &Pass{Fset: l.Fset(), Pkg: pkg, Mod: l.ModulePath, root: l.Root, rule: a.Name, findings: &raw}
				a.Run(pass)
			}
		}
		if a.RunModule != nil {
			g := graphOf()
			t0 = now() // charge graph construction to its own row, not the first user
			mp := &ModulePass{Fset: l.Fset(), Pkgs: pkgs, Graph: g, Mod: l.ModulePath,
				root: l.Root, rule: a.Name, ignoreScope: opts.IgnoreScope, findings: &raw}
			a.RunModule(mp)
		}
		stats = append(stats, RuleStat{Rule: a.Name, Seconds: now().Sub(t0).Seconds()})
	}

	var dirs []directive
	var dirErrs []Finding
	for _, pkg := range pkgs {
		d, errs := collectDirectives(l, pkg, known)
		dirs = append(dirs, d...)
		dirErrs = append(dirErrs, errs...)
	}

	kept, unused := suppress(raw, dirs)
	for _, d := range unused {
		dirErrs = append(dirErrs, Finding{
			File: d.file, Line: d.line, Rule: DirectiveRule,
			Message: fmt.Sprintf("suppression for %q matches no finding; the directive must sit on the flagged line or the line directly above it", d.rule),
		})
	}
	kept = append(kept, dirErrs...)
	sortFindings(kept)

	byRule := map[string]int{}
	for _, f := range kept {
		byRule[f.Rule]++
	}
	for i := range stats {
		stats[i].Findings = byRule[stats[i].Rule]
	}
	return kept, stats
}

// parseAllowDirective parses a single comment's text as a
// //reprolint:allow directive. isDirective is false when the comment is
// not a reprolint directive at all (no prefix, or a longer token such
// as //reprolint:allowlist). For a recognized directive, either rule
// and why carry the parsed parts (errMsg empty), or errMsg carries the
// fail-closed finding message and rule/why are empty. This is the pure
// core of the directive system; the fuzz target drives it directly.
func parseAllowDirective(text string, known map[string]bool) (rule, why, errMsg string, isDirective bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return "", "", "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", "", false // some other //reprolint:allowfoo token, not ours
	}
	rule, why, hasWhy := strings.Cut(strings.TrimSpace(rest), ":")
	rule = strings.TrimSpace(rule)
	why = strings.TrimSpace(why)
	switch {
	case rule == "":
		return "", "", "malformed directive: want //reprolint:allow <rule>: <why>", true
	case strings.ContainsAny(rule, " \t"):
		return "", "", fmt.Sprintf("malformed directive %q: suppress one rule per directive, as //reprolint:allow <rule>: <why>", rule), true
	case !known[rule]:
		return "", "", fmt.Sprintf("unknown rule %q in suppression directive (known rules: %s)", rule, strings.Join(sortedKeys(known), ", ")), true
	case !hasWhy || why == "":
		return "", "", fmt.Sprintf("suppression of %q is missing its justification: use //reprolint:allow %s: <why>", rule, rule), true
	}
	return rule, why, "", true
}

// collectDirectives parses every //reprolint:allow comment in the
// package. Malformed directives (no rule, unknown rule, missing why)
// are returned as fail-closed findings and do not suppress anything.
func collectDirectives(l *Loader, pkg *Package, known map[string]bool) ([]directive, []Finding) {
	var out []directive
	var errs []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rule, why, errMsg, isDirective := parseAllowDirective(c.Text, known)
				if !isDirective {
					continue
				}
				pos := l.Fset().Position(c.Pos())
				file := pos.Filename
				if rel, err := filepath.Rel(l.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = filepath.ToSlash(rel)
				}
				if errMsg != "" {
					errs = append(errs, Finding{
						File: file, Line: pos.Line, Rule: DirectiveRule, Message: errMsg,
					})
					continue
				}
				out = append(out, directive{file: file, line: pos.Line, rule: rule, why: why})
			}
		}
	}
	return out, errs
}

// suppress drops findings covered by a directive. A directive covers
// findings of its rule in its file on its own line (trailing comment)
// or the line directly below (comment above the flagged line). It
// returns surviving findings and directives that covered nothing.
func suppress(findings []Finding, dirs []directive) (kept []Finding, unused []directive) {
	used := make([]bool, len(dirs))
	for _, f := range findings {
		covered := false
		for i, d := range dirs {
			if d.rule == f.Rule && d.file == f.File && (d.line == f.Line || d.line+1 == f.Line) {
				used[i] = true
				covered = true
			}
		}
		if !covered {
			kept = append(kept, f)
		}
	}
	for i, d := range dirs {
		if !used[i] {
			unused = append(unused, d)
		}
	}
	return kept, unused
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

func sortedKeys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m { //reprolint:allow mapiter: rule-name list for an error message; sorted on the next line
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// inspectFiles runs fn over every node of every file in the pass's
// package; the usual entry point for analyzers.
func inspectFiles(p *Pass, fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
