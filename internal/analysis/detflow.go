// Check detflow: the flow-sensitive, transitive complement of the
// syntactic determinism check. Nondeterminism taint — wall-clock reads,
// the global math/rand source, map iteration order escaping into
// ordered state — is propagated through assignments and call summaries
// (internal/analysis/flow) until it reaches a result the repository
// promises is deterministic: a field of sim.Result, runplan.Result or
// runplan.RunStats, an argument to internal/report, or a
// runplan.ConfigKey memoization key. A time.Now buried two frames below
// sim.Run therefore fires here even though the determinism check's
// syntactic scan never sees it.
//
// Taint is suppressed at its source by an allow for detflow (or
// determinism) on the source line; a diagnostic at the sink is
// suppressed by an allow for detflow on the sink line.

package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/flow"
)

// DetFlow is the flow-sensitive determinism check.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "no nondeterminism (wall clock, global rand, map order) flowing into sim.Result, reports, or plan memoization, even through calls",
	Run:  runDetFlow,
}

// detflowSinkTypes are the qualified names (matched by path suffix) of
// types whose fields must stay deterministic.
var detflowSinkTypes = []struct{ pathSuffix, name string }{
	{"internal/sim", "Result"},
	{"internal/runplan", "Result"},
	{"internal/runplan", "RunStats"},
	{"internal/obs", "Snapshot"},
	{"internal/mech", "Stats"},
}

func runDetFlow(pass *Pass) {
	if pass.Summaries == nil {
		return
	}
	fpkg := pass.FlowPkg()
	analyze := func(body *ast.BlockStmt) {
		tf := pass.Summaries.Taint(fpkg, body, nil)
		tf.Walk(func(n ast.Node, st flow.TaintState) {
			checkDetFlowNode(pass, tf, n, st)
		})
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyze(fd.Body)
			// Function literals (goroutine bodies, callbacks) are their
			// own flows; their captured state starts unknown-clean.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					analyze(fl.Body)
				}
				return true
			})
		}
	}
}

// checkDetFlowNode looks for sinks in one CFG node under the taint
// state st.
func checkDetFlowNode(pass *Pass, tf *flow.TaintFlow, n ast.Node, st flow.TaintState) {
	// Field stores: x.F = tainted where x is a sink type.
	if as, ok := n.(*ast.AssignStmt); ok {
		for i, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			var rhs ast.Expr
			switch {
			case len(as.Rhs) == len(as.Lhs):
				rhs = as.Rhs[i]
			case len(as.Rhs) == 1:
				rhs = as.Rhs[0]
			default:
				continue
			}
			tn := sinkTypeName(pass.Info.TypeOf(sel.X))
			if tn == "" {
				continue
			}
			if t := tf.ExprTaint(rhs, st); t != nil {
				pass.Reportf(as.Pos(),
					"%s.%s receives a value derived from %s%s; simulation results must be pure functions of config and seed",
					tn, sel.Sel.Name, t.Root, viaClause(t))
			}
		}
	}
	// Composite literals of sink types, and sink calls, anywhere in the
	// node's expressions.
	flow.Shallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CompositeLit:
			tn := sinkTypeName(pass.Info.TypeOf(m))
			if tn == "" {
				return true
			}
			for _, elt := range m.Elts {
				field, v := "(element)", elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
					if id, ok := kv.Key.(*ast.Ident); ok {
						field = id.Name
					}
				}
				if t := tf.ExprTaint(v, st); t != nil {
					pass.Reportf(m.Pos(),
						"%s.%s receives a value derived from %s%s; simulation results must be pure functions of config and seed",
						tn, field, t.Root, viaClause(t))
				}
			}
		case *ast.CallExpr:
			checkDetFlowCall(pass, tf, m, st)
		}
		return true
	})
}

// checkDetFlowCall flags tainted arguments flowing into report
// rendering or plan memoization.
func checkDetFlowCall(pass *Pass, tf *flow.TaintFlow, call *ast.CallExpr, st flow.TaintState) {
	callee := flow.CalleeOf(pass.Info, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	path := callee.Pkg().Path()
	var sink string
	switch {
	case strings.HasSuffix(path, "internal/report"):
		sink = "report output"
	case strings.HasSuffix(path, "internal/runplan") && callee.Name() == "ConfigKey":
		sink = "the plan memoization key (runplan.ConfigKey)"
	default:
		return
	}
	for _, arg := range call.Args {
		if t := tf.ExprTaint(arg, st); t != nil {
			pass.Reportf(call.Pos(),
				"%s is fed a value derived from %s%s; %s must be deterministic",
				flow.FuncDisplayName(callee), t.Root, viaClause(t), sink)
			return
		}
	}
}

// sinkTypeName returns the short rendering ("sim.Result") when t is a
// deterministic-result type, else "".
func sinkTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	path := named.Obj().Pkg().Path()
	for _, s := range detflowSinkTypes {
		if named.Obj().Name() == s.name &&
			(path == s.pathSuffix || strings.HasSuffix(path, "/"+s.pathSuffix)) {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name()
		}
	}
	return ""
}

// viaClause renders a taint's call chain, e.g. " (via sim.scale →
// sim.jitter)".
func viaClause(t *flow.Taint) string {
	if len(t.Via) == 0 {
		return ""
	}
	via := t.Via
	if len(via) > 4 {
		via = via[:4]
	}
	return " (via " + strings.Join(via, " → ") + ")"
}
