// Package analysis is a stdlib-only static-analysis framework for the
// MCR-DRAM repository, built on go/ast, go/parser, go/token, go/types and
// go/importer, and the home of the seven checks cmd/mcrlint runs over the
// module. It keeps only what nothing else can check — the invariants a
// reproduction lives or dies by, which go vet, the race detector and a
// runtime test cannot see: timing constants stay faithful to the paper's
// Table 3 (timingliteral) and to the relations between its columns
// (timingconstraint), cycle- and nanosecond-denominated quantities do
// not mix (unitmix), results are bit-deterministic (determinism),
// libraries return errors instead of panicking (panicpolicy), contexts
// propagate (ctxpropagate), and switches over closed enums are
// exhaustive (enumswitch). Every check is plain AST + types.
//
// What a test can check, a test does: allocation on the per-cycle path
// is sim.TestSteadyStateZeroAllocPerCycle, blocking in per-cycle
// packages is sim.TestPerCyclePackagesCannotBlockOrReadTheHost, locks
// and goroutine captures are go test -race, checkpoint completeness is
// sim.TestRestoreEqualsLive. Each check that remains is shown to catch
// its mistake on real code by TestSurvivorsFlagRealMutations.
//
// A diagnostic can be suppressed with a trailing or preceding comment
// that begins
//
//	//mcrlint:allow <check> [justification]
//
// which is the escape hatch for deliberate exceptions (for example the
// wall-clock throughput instrumentation in internal/runplan). There is
// no baseline file; a directive naming an unregistered check is itself
// a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of one check.
type Diagnostic struct {
	Check   string         // name of the check that fired
	Pos     token.Position // resolved file:line:column
	Message string
}

// String renders the diagnostic the way the driver prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Pass carries one type-checked package through one check.
type Pass struct {
	Fset *token.FileSet
	// Path is the package's import path; checks scope themselves with
	// InPackage ("repro/internal/sim" and fixture paths alike).
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	module string // the loader's module path; "" for hand-built passes
	check  string
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:   p.check,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// InPackage reports whether the pass's package is internal/<name> (or a
// package below it), independent of the module prefix so that fixture
// packages under testdata match the same way real packages do.
func (p *Pass) InPackage(name string) bool {
	q := "internal/" + name
	return p.Path == q ||
		strings.HasSuffix(p.Path, "/"+q) ||
		strings.Contains(p.Path, "/"+q+"/") ||
		strings.HasPrefix(p.Path, q+"/")
}

// Analyzer is one registered check.
type Analyzer struct {
	Name string // short identifier, e.g. "determinism"
	Doc  string // one-line description for -list
	Run  func(*Pass)
}

// All returns every registered check, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		TimingLiteral,
		TimingConstraint,
		UnitMix,
		Determinism,
		PanicPolicy,
		CtxPropagate,
		EnumSwitch,
	}
}

// NearestCheck returns the registered check closest to name — name
// itself when it is registered — when the edit distance is small enough
// to look like a typo; "" otherwise.
func NearestCheck(name string) string {
	best, bestDist := "", 3 // suggest within edit distance 2
	for _, a := range All() {
		if d := editDistance(name, a.Name); d < bestDist {
			best, bestDist = a.Name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// RunChecks executes the given analyzers over one loaded package and
// returns the surviving diagnostics (allow-comments already applied),
// ordered by position. Allow directives naming an unregistered check are
// reported whichever analyzers were selected.
func RunChecks(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	allowed := collectAllows(pkg.Fset, pkg.Files)
	kept := unknownAllows(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Fset:   pkg.Fset,
			Path:   pkg.Path,
			Files:  pkg.Files,
			Pkg:    pkg.Types,
			Info:   pkg.Info,
			module: pkg.module,
			check:  a.Name,
		}
		pass.report = func(d Diagnostic) {
			if !allowed.allows(d) {
				kept = append(kept, d)
			}
		}
		a.Run(pass)
	}
	SortDiagnostics(kept)
	return kept
}

// SortDiagnostics orders diagnostics by file, line, column, check name,
// then message — a total, deterministic order.
func SortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool { return diagnosticLess(ds[i], ds[j]) })
}

// Dedupe sorts ds and removes exact duplicates (same position, check
// and message) — the same file analyzed under two package variants must
// never report twice. The returned slice aliases ds.
func Dedupe(ds []Diagnostic) []Diagnostic {
	SortDiagnostics(ds)
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

func diagnosticLess(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Check != b.Check {
		return a.Check < b.Check
	}
	return a.Message < b.Message
}

// inspectWithStack walks every file, calling fn with each node and the
// stack of its ancestors (outermost first, n excluded).
func inspectWithStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}

// pkgNameOf resolves an identifier used as a package qualifier to the
// imported package path, or "" when it is not a package name.
func pkgNameOf(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
