// Nondeterminism-taint dataflow: sources are wall-clock reads
// (time.Now, time.Since), the global math/rand source, and iteration
// order escaping a map range or sync.Map.Range; taint propagates
// through assignments, expressions and calls (via function summaries,
// so a source buried several frames below the analyzed function still
// surfaces). Sorting a slice sanitizes it. The same analysis backs both
// the detflow check (sink detection) and Store summaries (return-value
// taint, bottom-up over the import DAG).

package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Taint records why a value is nondeterministic.
type Taint struct {
	// Root is the originating source, e.g. "time.Now (wall clock)".
	Root string
	// Via is the call chain from the analyzed function toward the root,
	// outermost callee first, e.g. ["sim.scale", "sim.jitter"].
	Via []string
}

// paramRoot marks the pseudo-taint used to probe whether a function
// propagates argument taint to its results.
const paramRoot = "\x00param"

func (t *Taint) isParam() bool { return t != nil && t.Root == paramRoot }

// TaintState maps in-scope objects to their taint; absent means clean.
type TaintState map[types.Object]*Taint

// globalRandFuncs draw from (or reseed) the global math/rand source.
// Kept in sync with the determinism check's syntactic list.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// sortSanitizers kill the order taint of their slice argument.
var sortSanitizers = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true, "Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// TaintFlow is one solved taint analysis over a function body.
type TaintFlow struct {
	an  *taintAnalysis
	cfg *CFG
	sol *Solution[TaintState]
}

// taintAnalysis carries the per-function context shared by transfer and
// expression evaluation.
type taintAnalysis struct {
	pkg   *Pkg
	store *Store
	// orderTaints maps statement/call nodes to objects that become
	// order-tainted there (appends inside a map range, appends to outer
	// state inside a sync.Map.Range callback).
	orderTaints map[ast.Node][]orderTaint
	boundary    TaintState
}

type orderTaint struct {
	obj    types.Object
	reason string
}

// Taint runs the nondeterminism-taint analysis over body (belonging to
// pkg) and returns the solved flow. boundary seeds the entry state; nil
// means all-clean.
func (s *Store) Taint(pkg *Pkg, body *ast.BlockStmt, boundary TaintState) *TaintFlow {
	an := &taintAnalysis{
		pkg:         pkg,
		store:       s,
		orderTaints: collectOrderTaints(pkg, body, s.Allowed),
		boundary:    boundary,
	}
	cfg := New(body)
	sol := Solve[TaintState](cfg, (*taintProblem)(an))
	return &TaintFlow{an: an, cfg: cfg, sol: sol}
}

// Walk replays the analysis in execution order: fn is called for every
// node of every reachable block with the taint state just before the
// node executes.
func (tf *TaintFlow) Walk(fn func(n ast.Node, st TaintState)) {
	for _, b := range tf.cfg.Blocks {
		st, ok := tf.sol.In[b]
		if !ok {
			continue
		}
		st = cloneTaint(st)
		for _, n := range b.Nodes {
			fn(n, st)
			tf.an.transferNode(st, n)
		}
	}
}

// ExprTaint evaluates the taint of e under st.
func (tf *TaintFlow) ExprTaint(e ast.Expr, st TaintState) *Taint {
	return tf.an.exprTaint(st, e)
}

// taintProblem adapts taintAnalysis to the dataflow engine.
type taintProblem taintAnalysis

func (p *taintProblem) Boundary() TaintState {
	if p.boundary == nil {
		return TaintState{}
	}
	return p.boundary
}

func (p *taintProblem) Clone(f TaintState) TaintState { return cloneTaint(f) }

func (p *taintProblem) Join(dst, src TaintState) (TaintState, bool) {
	changed := false
	for obj, t := range src {
		if _, ok := dst[obj]; !ok {
			dst[obj] = t
			changed = true
		}
	}
	return dst, changed
}

func (p *taintProblem) Transfer(b *Block, in TaintState) TaintState {
	st := cloneTaint(in)
	for _, n := range b.Nodes {
		(*taintAnalysis)(p).transferNode(st, n)
	}
	return st
}

func cloneTaint(st TaintState) TaintState {
	out := make(TaintState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// transferNode applies one node's effect to st in place.
func (a *taintAnalysis) transferNode(st TaintState, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.transferAssign(st, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t *Taint
					if len(vs.Values) == len(vs.Names) {
						t = a.exprTaint(st, vs.Values[i])
					} else if len(vs.Values) == 1 {
						t = a.exprTaint(st, vs.Values[0])
					}
					a.setObj(st, name, t)
				}
			}
		}
	case *ast.RangeStmt:
		// Data taint of the ranged value flows into the key/value vars.
		t := a.exprTaint(st, n.X)
		if id, ok := n.Key.(*ast.Ident); ok && n.Key != nil {
			a.setObj(st, id, t)
		}
		if id, ok := n.Value.(*ast.Ident); ok && n.Value != nil {
			a.setObj(st, id, t)
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			a.applySanitizer(st, call)
			a.applyOrderTaints(st, call)
		}
	}
}

func (a *taintAnalysis) transferAssign(st TaintState, as *ast.AssignStmt) {
	taints := make([]*Taint, len(as.Lhs))
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		t := a.exprTaint(st, as.Rhs[0])
		for i := range taints {
			taints[i] = t
		}
	} else {
		for i := range as.Lhs {
			if i < len(as.Rhs) {
				taints[i] = a.exprTaint(st, as.Rhs[i])
			}
		}
	}
	for i, lhs := range as.Lhs {
		t := taints[i]
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			// Compound assignment keeps any existing taint of the target.
			if old := a.lhsTaint(st, lhs); old != nil {
				t = old
			}
		}
		switch lhs := lhs.(type) {
		case *ast.Ident:
			a.setObj(st, lhs, t)
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			// Weak update: a tainted store poisons the base object (the
			// struct/slice now holds nondeterministic data); a clean
			// store proves nothing about the rest of the base.
			if t != nil {
				if base := rootIdent(lhs); base != nil {
					if obj := a.pkg.Info.ObjectOf(base); obj != nil {
						st[obj] = t
					}
				}
			}
		}
	}
	a.applyOrderTaints(st, as)
}

func (a *taintAnalysis) lhsTaint(st TaintState, lhs ast.Expr) *Taint {
	return a.exprTaint(st, lhs)
}

func (a *taintAnalysis) setObj(st TaintState, id *ast.Ident, t *Taint) {
	if id == nil || id.Name == "_" {
		return
	}
	obj := a.pkg.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	if t != nil {
		st[obj] = t
	} else {
		delete(st, obj)
	}
}

// applyOrderTaints injects pre-computed order taints attached to n.
func (a *taintAnalysis) applyOrderTaints(st TaintState, n ast.Node) {
	for _, ot := range a.orderTaints[n] {
		st[ot.obj] = &Taint{Root: ot.reason}
	}
}

// applySanitizer clears the taint of slice arguments passed to sort
// functions: after sort.Strings(keys) the slice's order is canonical.
func (a *taintAnalysis) applySanitizer(st TaintState, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := a.pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	fns := sortSanitizers[pn.Imported().Path()]
	if fns == nil || !fns[sel.Sel.Name] || len(call.Args) == 0 {
		return
	}
	if argID, ok := call.Args[0].(*ast.Ident); ok {
		if obj := a.pkg.Info.ObjectOf(argID); obj != nil {
			delete(st, obj)
		}
	}
}

// exprTaint evaluates the taint of e under st.
func (a *taintAnalysis) exprTaint(st TaintState, e ast.Expr) *Taint {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		if obj := a.pkg.Info.ObjectOf(e); obj != nil {
			return st[obj]
		}
		return nil
	case *ast.SelectorExpr:
		if pkgNameOfIdent(a.pkg.Info, e.X) != "" {
			return nil // qualified name, not a value
		}
		return a.exprTaint(st, e.X)
	case *ast.CallExpr:
		return a.callTaint(st, e)
	case *ast.ParenExpr:
		return a.exprTaint(st, e.X)
	case *ast.StarExpr:
		return a.exprTaint(st, e.X)
	case *ast.UnaryExpr:
		return a.exprTaint(st, e.X)
	case *ast.BinaryExpr:
		if t := a.exprTaint(st, e.X); t != nil {
			return t
		}
		return a.exprTaint(st, e.Y)
	case *ast.IndexExpr:
		if t := a.exprTaint(st, e.X); t != nil {
			return t
		}
		return a.exprTaint(st, e.Index)
	case *ast.SliceExpr:
		return a.exprTaint(st, e.X)
	case *ast.TypeAssertExpr:
		return a.exprTaint(st, e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if t := a.exprTaint(st, v); t != nil {
				return t
			}
		}
		return nil
	default:
		return nil
	}
}

// callTaint evaluates the taint of a call: conversions and builtins
// propagate, known sources originate, module callees consult their
// summary, and unknown callees conservatively propagate argument and
// receiver taint.
func (a *taintAnalysis) callTaint(st TaintState, call *ast.CallExpr) *Taint {
	info := a.pkg.Info
	// Type conversion: taint of the converted operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return a.exprTaint(st, call.Args[0])
		}
		return nil
	}
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "new", "make", "delete", "clear", "close", "panic", "recover", "print", "println":
				return nil
			default: // append, copy, min, max, complex, ...
				return a.anyArgTaint(st, call.Args)
			}
		}
	}
	// Named source?
	if root := a.sourceOf(call); root != "" {
		if a.store.Allowed != nil && a.store.Allowed(a.pkg.Fset.Position(call.Pos())) {
			return nil
		}
		return &Taint{Root: root}
	}
	// Resolve the callee.
	callee := CalleeOf(info, call)
	if callee != nil && a.store.Resolve != nil && callee.Pkg() != nil {
		if sum := a.store.FuncSummary(callee); sum != nil && sum.known {
			if sum.Taint != "" {
				return &Taint{
					Root: sum.Taint,
					Via:  append([]string{FuncDisplayName(callee)}, sum.TaintVia...),
				}
			}
			if sum.Propagates {
				if t := a.callInputTaint(st, call); t != nil {
					return t
				}
			}
			return nil
		}
	}
	// Unknown body (stdlib, interface method, func value): propagate.
	return a.callInputTaint(st, call)
}

// callInputTaint is the taint of any argument or method receiver.
func (a *taintAnalysis) callInputTaint(st TaintState, call *ast.CallExpr) *Taint {
	if t := a.anyArgTaint(st, call.Args); t != nil {
		return t
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkgNameOfIdent(a.pkg.Info, sel.X) == "" {
			return a.exprTaint(st, sel.X)
		}
	}
	return nil
}

func (a *taintAnalysis) anyArgTaint(st TaintState, args []ast.Expr) *Taint {
	for _, arg := range args {
		if t := a.exprTaint(st, arg); t != nil {
			return t
		}
	}
	return nil
}

// sourceOf classifies a call as a nondeterminism source, returning the
// root reason or "".
func (a *taintAnalysis) sourceOf(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch pkgNameOfIdent(a.pkg.Info, sel.X) {
	case "time":
		switch sel.Sel.Name {
		case "Now":
			return "time.Now (wall clock)"
		case "Since":
			return "time.Since (wall clock)"
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[sel.Sel.Name] {
			return "the global math/rand source (rand." + sel.Sel.Name + ")"
		}
	}
	return ""
}

// collectOrderTaints pre-scans a body for places where map iteration
// order escapes into ordered state: appends or compound accumulations
// inside a map range (attached to that statement), and writes to outer
// state inside a sync.Map.Range callback (attached to the Range call).
func collectOrderTaints(pkg *Pkg, body *ast.BlockStmt, allowed func(token.Position) bool) map[ast.Node][]orderTaint {
	out := map[ast.Node][]orderTaint{}
	suppressed := func(pos token.Pos) bool {
		return allowed != nil && allowed(pkg.Fset.Position(pos))
	}
	var walk func(n ast.Node, inMapRange bool)
	walk = func(n ast.Node, inMapRange bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // separate function
			case *ast.RangeStmt:
				isMap := false
				if t := pkg.Info.TypeOf(m.X); t != nil {
					_, isMap = t.Underlying().(*types.Map)
				}
				walkList(m.Body.List, isMap || inMapRange, walk)
				if m.Key != nil {
					walk(m.Key, inMapRange)
				}
				walk(m.X, inMapRange)
				return false
			case *ast.AssignStmt:
				if inMapRange && !suppressed(m.Pos()) {
					if obj := orderedTarget(pkg, m); obj != nil {
						out[m] = append(out[m], orderTaint{obj, "map iteration order"})
					}
				}
				return true
			case *ast.CallExpr:
				if obj, node := syncMapRangeEscape(pkg, m); obj != nil && !suppressed(node.Pos()) {
					out[m] = append(out[m], orderTaint{obj, "sync.Map.Range iteration order"})
				}
				return true
			}
			return true
		})
	}
	walk(body, false)
	return out
}

func walkList(list []ast.Stmt, inMapRange bool, walk func(ast.Node, bool)) {
	for _, s := range list {
		walk(s, inMapRange)
	}
}

// orderedTarget reports the object an assignment feeds in an
// order-sensitive way: s = append(s, ...) or x += v with a plain ident
// target. Writes keyed by the map key (m2[k] = v) are order-free and
// return nil.
func orderedTarget(pkg *Pkg, as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
					return pkg.Info.ObjectOf(id)
				}
			}
		}
	default: // +=, -=, *=, |=, ...: accumulation order matters
		return pkg.Info.ObjectOf(id)
	}
	return nil
}

// syncMapRangeEscape detects m.Range(func(k, v any) bool { outer =
// append(outer, ...) }) on a sync.Map and returns the outer object the
// callback writes plus the node carrying the escape.
func syncMapRangeEscape(pkg *Pkg, call *ast.CallExpr) (types.Object, ast.Node) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" || len(call.Args) != 1 {
		return nil, nil
	}
	t := pkg.Info.TypeOf(sel.X)
	if t == nil || !strings.HasSuffix(typeQName(t), "sync.Map") {
		return nil, nil
	}
	fl, ok := call.Args[0].(*ast.FuncLit)
	if !ok {
		return nil, nil
	}
	var found types.Object
	var at ast.Node
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		obj := orderedTarget(pkg, as)
		if obj != nil && (obj.Pos() < fl.Pos() || obj.Pos() > fl.End()) {
			found, at = obj, as
		}
		return true
	})
	if found == nil {
		return nil, nil
	}
	return found, at
}

// CalleeOf resolves the *types.Func a call invokes, or nil for func
// values, builtins and conversions.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pkgNameOfIdent resolves an expression used as a package qualifier to
// the imported path, or "".
func pkgNameOfIdent(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// typeQName renders a (possibly pointer) named type as
// "pkg/path.Name", or "" for unnamed types.
func typeQName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// rootIdent returns the leftmost identifier of a selector/index/star
// chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
