// Package lint is a repo-specific static-analysis framework built entirely
// on the standard library (go/parser, go/ast, go/types). It exists because
// the analysis pipeline is numeric, map-heavy, and increasingly concurrent:
// the failure modes that corrupt its results — float equality on thresholds,
// nondeterministic map iteration feeding reports, copied mutexes, leaked
// goroutines, dropped errors — do not fail tests, so they are locked out by
// tooling instead. cmd/vqlint runs every registered analyzer over the tree
// and exits non-zero on findings, gating CI.
//
// Analyzers report diagnostics with a stable rule ID. A finding can be
// suppressed by a trailing or preceding comment:
//
//	//vqlint:ignore <rule>[,<rule>...] [rationale]
//
// The comment suppresses the named rules (or "all") on its own line and on
// the line that follows, so both trailing and standalone placements work.
// For generated or fixture-heavy regions there is a block form:
//
//	//vqlint:ignore-start <rule>[,<rule>...] [rationale]
//	...
//	//vqlint:ignore-end
//
// Blocks must be flat and closed: a nested ignore-start, an ignore-end with
// no open block, a start with no rule list, or a block left open at end of
// file is itself reported as a finding under the "vqlint" rule — a
// malformed suppression silently suppressing nothing (or everything) is
// exactly the kind of bug a linter must not have.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/summary"
)

// Diagnostic is one finding: a rule ID, a position, and a message.
type Diagnostic struct {
	Rule string
	Pos  token.Position
	Msg  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Msg, d.Rule)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name is the stable rule ID used in diagnostics and suppressions.
	Name string
	// Doc is a one-line description of what the rule catches.
	Doc string
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Pass is the per-(package, analyzer) context handed to Analyzer.Run.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Sums holds the interprocedural summaries of the package's declared
	// functions (nil only in tests that construct a Pass by hand). Analyzers
	// use it to see through in-package helpers: a Release inside a helper, a
	// lock-courier's net delta, a spawned worker that can never terminate.
	Sums *summary.Set

	rule       string
	report     func(Diagnostic)
	suppressed func(rule string, line int, file string) bool
}

// reportf records a finding at pos unless a suppression comment covers it.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed != nil && p.suppressed(p.rule, position.Line, position.Filename) {
		return
	}
	p.report(Diagnostic{Rule: p.rule, Pos: position, Msg: fmt.Sprintf(format, args...)})
}

// typeOf returns the type of expression e, or nil when unknown.
func (p *Pass) typeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// All returns the registered analyzers in a stable order. The CFG analyzers
// (detorder, lockbalance, poolrelease, poollifetime, errflow, ratioguard)
// are the path-sensitive tier; lockbalance subsumes the v1 syntactic
// lockheld rule and detorder the v1 maporder rule. The concurrency and
// determinism analyzers (goleak, chandiscipline, wgbalance, wallclock) sit
// on the interprocedural tier and consume the per-function summaries in
// Pass.Sums.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		DetOrder,
		MutexCopy,
		LockBalance,
		PoolRelease,
		PoolLifetime,
		ErrFlow,
		RatioGuard,
		CtxCheck,
		ErrDrop,
		GoLeak,
		ChanDiscipline,
		WgBalance,
		WallClock,
	}
}

// ByName returns the analyzer with the given rule ID, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// PkgTiming records how long one package took to analyze: total wall time
// plus a per-rule breakdown. The pseudo-rule "(setup)" covers the work
// shared by every analyzer — the suppression table and the interprocedural
// summaries.
type PkgTiming struct {
	Path    string                   `json:"path"`
	Elapsed time.Duration            `json:"elapsedNs"`
	Rules   map[string]time.Duration `json:"ruleNs,omitempty"`
}

// runPackage analyzes one package: it builds the suppression table and the
// interprocedural summaries, then runs every analyzer, timing each. The
// returned slice is in analyzer-then-report order; callers sort.
func runPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, map[string]time.Duration) {
	var diags []Diagnostic
	rules := make(map[string]time.Duration, len(analyzers)+1)
	start := time.Now()
	sup, bad := buildSuppressions(pkg.Fset, pkg.Files)
	diags = append(diags, bad...)
	sums := summary.Compute(callgraph.Build(pkg.Files, pkg.Info), pkg.Info)
	rules["(setup)"] = time.Since(start)
	for _, a := range analyzers {
		pass := &Pass{
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			Sums:       sums,
			rule:       a.Name,
			report:     func(d Diagnostic) { diags = append(diags, d) },
			suppressed: sup.covers,
		}
		start = time.Now()
		a.Run(pass)
		rules[a.Name] += time.Since(start)
	}
	return diags, rules
}

// RunConcurrent applies the analyzers to every package with a bounded
// worker pool and returns the findings sorted by file, line, column, then
// rule. Loading is
// the caller's problem and stays serial (Load memoises each in-module
// package as it type-checks it); analysis of already-type-checked packages
// is read-only per package, so packages can run in parallel. Results land
// in per-package slots, so the
// final ordering is deterministic regardless of scheduling. The second
// result reports per-package wall time, in the input package order.
func RunConcurrent(pkgs []*Package, analyzers []*Analyzer, workers int) ([]Diagnostic, []PkgTiming) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(pkgs) && len(pkgs) > 0 {
		workers = len(pkgs)
	}
	slots := make([][]Diagnostic, len(pkgs))
	timings := make([]PkgTiming, len(pkgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				start := time.Now()
				diags, rules := runPackage(pkgs[i], analyzers)
				slots[i] = diags
				timings[i] = PkgTiming{Path: pkgs[i].Path, Elapsed: time.Since(start), Rules: rules}
			}
		}()
	}
	for i := range pkgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var diags []Diagnostic
	for _, s := range slots {
		diags = append(diags, s...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return diags, timings
}

// Suppression comment markers. The block markers must be matched before the
// line marker: they share its prefix.
const (
	ignorePrefix      = "//vqlint:ignore"
	ignoreStartPrefix = "//vqlint:ignore-start"
	ignoreEndPrefix   = "//vqlint:ignore-end"
)

// configRule is the rule ID under which malformed suppression comments are
// reported.
const configRule = "vqlint"

// supRange is one //vqlint:ignore-start…ignore-end region (line numbers
// inclusive on both marker lines).
type supRange struct {
	start, end int
	rules      map[string]bool
}

type fileSup struct {
	lines  map[int]map[string]bool
	ranges []supRange
}

// suppressions maps file → its line- and block-form suppression records
// ("all" matches every rule).
type suppressions map[string]*fileSup

func (s suppressions) covers(rule string, line int, file string) bool {
	fs := s[file]
	if fs == nil {
		return false
	}
	if rules := fs.lines[line]; rules != nil && (rules[rule] || rules["all"]) {
		return true
	}
	for _, r := range fs.ranges {
		if line >= r.start && line <= r.end && (r.rules[rule] || r.rules["all"]) {
			return true
		}
	}
	return false
}

// cutMarker matches a marker followed by a word boundary, so that
// "ignore-start" is never parsed as the line form "ignore" with a "-start"
// rule list.
func cutMarker(text, marker string) (string, bool) {
	rest, ok := strings.CutPrefix(text, marker)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return rest, true
}

func parseRuleList(field string) map[string]bool {
	rules := make(map[string]bool)
	for _, r := range strings.Split(field, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules[r] = true
		}
	}
	return rules
}

// buildSuppressions collects the suppression comments of a package's files
// and reports malformed block comments as diagnostics (see the package
// comment).
func buildSuppressions(fset *token.FileSet, files []*ast.File) (suppressions, []Diagnostic) {
	sup := make(suppressions)
	var bad []Diagnostic
	reportf := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Diagnostic{Rule: configRule, Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
	fileFor := func(name string) *fileSup {
		fs := sup[name]
		if fs == nil {
			fs = &fileSup{lines: make(map[int]map[string]bool)}
			sup[name] = fs
		}
		return fs
	}
	for _, f := range files {
		var open *supRange
		openAt := 0
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				if _, ok := cutMarker(c.Text, ignoreEndPrefix); ok {
					if open == nil {
						reportf(pos, "%s without a matching %s", ignoreEndPrefix, ignoreStartPrefix)
						continue
					}
					open.end = pos.Line
					fileFor(pos.Filename).ranges = append(fileFor(pos.Filename).ranges, *open)
					open = nil
					continue
				}
				if rest, ok := cutMarker(c.Text, ignoreStartPrefix); ok {
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						reportf(pos, "%s needs a rule list (or \"all\")", ignoreStartPrefix)
						continue
					}
					if open != nil {
						reportf(pos, "nested %s: the block opened at line %d is still open", ignoreStartPrefix, openAt)
						continue
					}
					open = &supRange{start: pos.Line, rules: parseRuleList(fields[0])}
					openAt = pos.Line
					continue
				}
				rest, ok := cutMarker(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				// Cover the comment's own line (trailing placement) and the
				// next line (standalone placement).
				fs := fileFor(pos.Filename)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					rules := fs.lines[line]
					if rules == nil {
						rules = make(map[string]bool)
						fs.lines[line] = rules
					}
					for r := range parseRuleList(fields[0]) {
						rules[r] = true
					}
				}
			}
		}
		if open != nil {
			end := fset.Position(f.End())
			reportf(end, "%s at line %d is never closed by %s", ignoreStartPrefix, openAt, ignoreEndPrefix)
		}
	}
	return sup, bad
}
