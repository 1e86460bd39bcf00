// Check unitmix: the simulator carries latencies in two currencies —
// nanoseconds (SPICE-derived Table 3 values, DDR3NS) and 800 MHz memory
// cycles (timing.Params, everything the controller schedules with). Adding
// or comparing across the two is the classic silent-corruption bug: the
// result is a plausible number in neither unit. The check classifies
// expressions by naming convention (…NS vs …Cycle/…Cycles), by the struct
// they are fields of (timing.Params is cycle-denominated, timing.DDR3NS is
// nanosecond-denominated), and by the core conversion helpers, then flags
// additive or comparative mixing in internal/timing and internal/sim.
// Multiplication and division are exempt — that is how conversions are
// written.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnitMix is the unitmix check.
var UnitMix = &Analyzer{
	Name: "unitmix",
	Doc:  "no additive mixing of cycle-denominated and nanosecond-denominated quantities",
	Run:  runUnitMix,
}

func runUnitMix(pass *Pass) {
	if !pass.InPackage("timing") && !pass.InPackage("sim") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.ADD, token.SUB, token.LSS, token.LEQ,
					token.GTR, token.GEQ, token.EQL, token.NEQ:
					reportMix(pass, n.Pos(), unitOf(pass, n.X), unitOf(pass, n.Y),
						"operands of "+n.Op.String())
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				switch n.Tok {
				case token.ASSIGN, token.DEFINE, token.ADD_ASSIGN, token.SUB_ASSIGN:
					for i := range n.Lhs {
						reportMix(pass, n.Rhs[i].Pos(),
							unitOf(pass, n.Lhs[i]), unitOf(pass, n.Rhs[i]),
							"sides of "+n.Tok.String())
					}
				}
			case *ast.CompositeLit:
				u := structUnit(pass.Info.TypeOf(n))
				if u == "" {
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						reportMix(pass, kv.Value.Pos(), u, unitOf(pass, kv.Value),
							"field initializer")
					}
				}
			}
			return true
		})
	}
}

// reportMix fires when both units are known and disagree.
func reportMix(pass *Pass, pos token.Pos, a, b, where string) {
	if a == "" || b == "" || a == b {
		return
	}
	pass.Reportf(pos,
		"%s mix %s- and %s-denominated quantities; convert with core.NSToMemCycles or core.MemCyclesToNS first",
		where, a, b)
}

// unitOf classifies an expression as "ns", "cycles", or "" (unknown /
// dimensionless). Only additive structure propagates a unit; a product or
// quotient is how units legitimately change, so it classifies as unknown.
func unitOf(pass *Pass, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return unitOf(pass, e.X)
	case *ast.UnaryExpr:
		return unitOf(pass, e.X)
	case *ast.Ident:
		return unitFromName(e.Name)
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if u := structUnit(sel.Recv()); u != "" {
				return u
			}
		}
		return unitFromName(e.Sel.Name)
	case *ast.CompositeLit:
		return structUnit(pass.Info.TypeOf(e))
	case *ast.CallExpr:
		name := calleeName(e.Fun)
		switch name {
		case "NSToMemCycles":
			return "cycles"
		case "MemCyclesToNS":
			return "ns"
		}
		// A plain numeric conversion (float64(x), int64(x)) is
		// unit-transparent.
		if len(e.Args) == 1 {
			if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() {
				return unitOf(pass, e.Args[0])
			}
		}
		return unitFromName(name)
	case *ast.BinaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			if x, y := unitOf(pass, e.X), unitOf(pass, e.Y); x == y {
				return x
			}
		}
	}
	return ""
}

// unitFromName classifies an identifier by naming convention. The NS
// suffix is matched case-sensitively so that names like "columns" stay
// dimensionless.
func unitFromName(name string) string {
	if name == "ns" || strings.HasSuffix(name, "NS") || strings.HasSuffix(name, "Ns") {
		return "ns"
	}
	lower := strings.ToLower(name)
	if strings.HasSuffix(lower, "cycles") || strings.HasSuffix(lower, "cycle") {
		return "cycles"
	}
	return ""
}

// structUnit classifies a struct type whose fields share one unit:
// timing.Params is entirely memory cycles, timing.DDR3NS entirely
// nanoseconds. Everything else (including ModeTiming, which mixes counts
// and ns fields) is unknown.
func structUnit(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.Contains(obj.Pkg().Path(), "internal/timing") {
		return ""
	}
	switch obj.Name() {
	case "Params":
		return "cycles"
	case "DDR3NS":
		return "ns"
	}
	return ""
}

// calleeName returns the bare name of the called function, "" when the
// callee is not a named function.
func calleeName(fun ast.Expr) string {
	switch fun := fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.ParenExpr:
		return calleeName(fun.X)
	}
	return ""
}
