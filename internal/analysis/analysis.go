// Package analysis is a stdlib-only static-analysis framework for the
// MCR-DRAM repository, built on go/ast, go/parser, go/token, go/types and
// go/importer. It hosts the domain-invariant checks that go vet cannot
// express — timing constants must stay faithful to the paper's Table 3,
// simulation code must be bit-deterministic, command-legality panics must
// stay confined to internal/dram, contexts must propagate, and cycle- and
// nanosecond-denominated quantities must not mix — and the cmd/mcrlint
// driver that runs them over the module.
//
// A diagnostic can be suppressed with a trailing or preceding comment of
// the form
//
//	//mcrlint:allow <check> [justification]
//
// which is the escape hatch for deliberate exceptions (for example the
// wall-clock throughput instrumentation in internal/runplan).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/flow"
	"repro/internal/analysis/heap"
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
	// Summaries is the module's cross-package function-summary store
	// (nil only for hand-built passes without a loader); the
	// flow-sensitive checks consult it for transitive facts.
	Summaries *flow.Store
	// Heap is the module's heap/escape summary store (nil without a
	// loader); the hot-path checks consult it for allocation, boxing
	// and blocking reachability.
	Heap *heap.Store

	check            string
	report           func(Diagnostic)
	reportSuppressed func(Diagnostic)
}

// FlowPkg adapts the pass's package for the flow layer.
func (p *Pass) FlowPkg() *flow.Pkg {
	return &flow.Pkg{Fset: p.Fset, Files: p.Files, Types: p.Pkg, Info: p.Info}
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:   p.check,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportPosf records a diagnostic at an already-resolved position —
// the hot-path checks report at allocation sites that may live in a
// different package than the pass's.
func (p *Pass) ReportPosf(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Check:   p.check,
		Pos:     pos,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportSuppressedPosf records a diagnostic that is already known to be
// allow-suppressed at its source. The hot-path checks use it for sites
// whose allow comment lives in another package than the pass's — the
// pass-level allow set cannot see it, yet the finding must still count
// as "present" for the driver's stale-baseline detection.
func (p *Pass) ReportSuppressedPosf(pos token.Position, format string, args ...any) {
	if p.reportSuppressed == nil {
		return
	}
	p.reportSuppressed(Diagnostic{
		Check:   p.check,
		Pos:     pos,
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
	// Substrate names the analysis layer the check is built on: "syntax"
	// (plain AST+types), "flow" (CFG/dataflow), "heap" (escape
	// summaries), or "interval" (value ranges). The driver's -checks
	// accepts "substrate:" prefixes selecting a whole layer.
	Substrate string
	Doc       string // one-line description for -list-checks
	Run       func(*Pass)
}

// All returns every registered check, in stable order. The first five
// are syntactic; the next three are flow-sensitive, built on
// internal/analysis/flow; the following three are the hot-path hygiene
// trio built on internal/analysis/heap; the last two are the
// structural invariants: timingrange on internal/analysis/interval, and
// the syntactic enumswitch.
func All() []*Analyzer {
	return []*Analyzer{
		TimingLiteral,
		Determinism,
		PanicPolicy,
		CtxPropagate,
		UnitMix,
		DetFlow,
		LockScope,
		CaptureRace,
		HotAlloc,
		HotBox,
		HotLock,
		TimingRange,
		EnumSwitch,
	}
}

// RunChecks executes the given analyzers over one loaded package and
// returns the surviving diagnostics (allow-comments already applied),
// ordered by position.
func RunChecks(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	kept, _ := RunChecksCollect(pkg, analyzers)
	return kept
}

// RunChecksCollect is RunChecks plus the allow-suppressed diagnostics,
// which the driver needs for stale-baseline detection: a finding that
// gained an //mcrlint:allow must still count as "present" so its
// baseline entry is not warned about as stale.
func RunChecksCollect(pkg *Package, analyzers []*Analyzer) (kept, suppressed []Diagnostic) {
	allowed := collectAllows(pkg.Fset, pkg.Files)
	var store *flow.Store
	var heapStore *heap.Store
	if pkg.loader != nil {
		store = pkg.loader.Summaries()
		heapStore = pkg.loader.Heap()
	}
	for _, a := range analyzers {
		pass := &Pass{
			Fset:      pkg.Fset,
			Path:      pkg.Path,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			Summaries: store,
			Heap:      heapStore,
			check:     a.Name,
		}
		pass.report = func(d Diagnostic) {
			if allowed.allows(d) {
				suppressed = append(suppressed, d)
			} else {
				kept = append(kept, d)
			}
		}
		pass.reportSuppressed = func(d Diagnostic) {
			suppressed = append(suppressed, d)
		}
		a.Run(pass)
	}
	sortDiagnostics(kept)
	sortDiagnostics(suppressed)
	return kept, suppressed
}

// SortDiagnostics orders diagnostics by file, line, column, check name,
// then message — a total, deterministic order.
func SortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool { return diagnosticLess(ds[i], ds[j]) })
}

func sortDiagnostics(ds []Diagnostic) { SortDiagnostics(ds) }

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
