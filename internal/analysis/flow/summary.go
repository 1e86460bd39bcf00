// The cross-package function-summary fact store, in the spirit of the
// go/analysis facts model: each module-internal function gets a summary
// — does its result carry nondeterminism taint, does it propagate
// argument taint — computed on demand and memoized. Because the analysis
// loader type-checks packages bottom-up over the import DAG, a summary
// request for a callee in an imported package always finds that package
// already loaded; recursion inside a package is broken optimistically (a
// cycle member sees the zero summary of its peers, which
// under-approximates only for taint that exists solely on the cycle).

package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Pkg is the slice of a loaded package the flow layer needs.
type Pkg struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Summary is the computed fact set of one function.
type Summary struct {
	// known distinguishes a computed summary from the zero summary of a
	// function whose body is unavailable (stdlib, interface method).
	known bool

	// Taint is the root nondeterminism source reaching the function's
	// return values ("" when clean); TaintVia is the call chain below
	// this function toward that source.
	Taint    string
	TaintVia []string

	// Propagates reports whether argument/receiver taint can reach the
	// function's results (identity-shaped helpers).
	Propagates bool
}

// Known reports whether the summary was computed from a real body.
func (s *Summary) Known() bool { return s != nil && s.known }

var zeroSummary = &Summary{}

// Store computes and caches function summaries for one loaded module.
type Store struct {
	// Resolve maps an import path to its loaded package, or nil when the
	// path is outside the module (stdlib).
	Resolve func(path string) *Pkg
	// Allowed reports whether a source position carries an allow
	// annotation that should suppress taint at its origin.
	Allowed func(pos token.Position) bool

	sums  map[*types.Func]*Summary
	busy  map[*types.Func]bool
	decls map[string]map[*types.Func]*ast.FuncDecl
}

// NewStore builds a summary store over resolve; allowed may be nil.
func NewStore(resolve func(path string) *Pkg, allowed func(pos token.Position) bool) *Store {
	return &Store{
		Resolve: resolve,
		Allowed: allowed,
		sums:    map[*types.Func]*Summary{},
		busy:    map[*types.Func]bool{},
		decls:   map[string]map[*types.Func]*ast.FuncDecl{},
	}
}

// FuncSummary returns fn's summary, computing it on first request. The
// zero summary (Known false) is returned for functions without an
// analyzable body.
func (s *Store) FuncSummary(fn *types.Func) *Summary {
	if fn == nil || fn.Pkg() == nil || s.Resolve == nil {
		return zeroSummary
	}
	if sum, ok := s.sums[fn]; ok {
		return sum
	}
	if s.busy[fn] {
		return zeroSummary // recursion: optimistic zero
	}
	pkg := s.Resolve(fn.Pkg().Path())
	if pkg == nil {
		s.sums[fn] = zeroSummary
		return zeroSummary
	}
	decl := s.declIndex(fn.Pkg().Path(), pkg)[fn]
	if decl == nil || decl.Body == nil {
		s.sums[fn] = zeroSummary
		return zeroSummary
	}
	s.busy[fn] = true
	sum := s.compute(pkg, fn, decl)
	delete(s.busy, fn)
	s.sums[fn] = sum
	return sum
}

// declIndex lazily maps a package's *types.Func objects to their decls.
func (s *Store) declIndex(path string, pkg *Pkg) map[*types.Func]*ast.FuncDecl {
	if idx, ok := s.decls[path]; ok {
		return idx
	}
	idx := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	s.decls[path] = idx
	return idx
}

func (s *Store) compute(pkg *Pkg, fn *types.Func, decl *ast.FuncDecl) *Summary {
	sum := &Summary{known: true}

	// Named result objects, for naked-return taint.
	resultObjs := map[types.Object]bool{}
	if decl.Type.Results != nil {
		for _, field := range decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					resultObjs[obj] = true
				}
			}
		}
	}

	// Return taint: analyze with a clean boundary; any tainted return
	// value taints the function.
	tf := s.Taint(pkg, decl.Body, nil)
	if t := returnTaint(tf, resultObjs); t != nil {
		sum.Taint = t.Root
		sum.TaintVia = t.Via
	}

	// Argument propagation: probe with every parameter (and receiver)
	// pre-tainted by the pseudo root; a param-rooted return means
	// caller-side taint flows through.
	boundary := TaintState{}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		boundary[recv] = &Taint{Root: paramRoot}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		boundary[sig.Params().At(i)] = &Taint{Root: paramRoot}
	}
	if len(boundary) > 0 {
		ptf := s.Taint(pkg, decl.Body, boundary)
		if t := returnTaint(ptf, resultObjs); t.isParam() {
			sum.Propagates = true
		}
	}
	return sum
}

// returnTaint replays the flow and returns the first taint reaching a
// return statement's results, in block order. resultObjs are the named
// result parameters, consulted for naked returns.
func returnTaint(tf *TaintFlow, resultObjs map[types.Object]bool) *Taint {
	var found *Taint
	tf.Walk(func(n ast.Node, st TaintState) {
		if found != nil {
			return
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			if t := tf.ExprTaint(res, st); t != nil {
				found = t
				return
			}
		}
		// Naked return: named results may have been tainted.
		if len(ret.Results) == 0 {
			for obj, t := range st {
				if resultObjs[obj] {
					found = t
					return
				}
			}
		}
	})
	return found
}

// FuncDisplayName renders fn compactly: "sim.jitter" or
// "runplan.(*Executor).runSpec".
func FuncDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		star := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			star = "*"
		}
		if named, ok := rt.(*types.Named); ok {
			name = "(" + star + named.Obj().Name() + ")." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}
