// Check timingconstraint: the paper's structural constraints among the
// fields of one timing-parameter literal and across the literals of one
// declaration, verified syntactically at every constant composite
// literal of timing.ModeTiming, timing.DDR3NS and timing.Params
// (timingliteral guards the values against Table 3; this guards the
// relations between them, which a re-typed table can break while every
// single number still looks plausible):
//
//   - an activation must stay open long enough to stream a burst after
//     column access: tRAS >= tRCD + tBURST;
//   - Table 3's Early-Access effect is monotone — a larger clone gang K
//     senses at least as fast, so TRCDNS may not increase with K across
//     the ModeTiming literals of one declaration.

package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/core"
)

// TimingConstraint verifies the relations between timing-literal fields.
var TimingConstraint = &Analyzer{
	Name: "timingconstraint",
	Doc:  "constant timing literals satisfy tRAS >= tRCD + burst, and TRCDNS does not increase with K across the ModeTiming literals of one declaration",
	Run:  runTimingConstraint,
}

// burstNS is the bus occupancy of one BL8 burst (TBURST cycles), the
// floor an activation must outlive its column access by.
const burstNS = 4 * core.MemCycleNS

func runTimingConstraint(pass *Pass) {
	// K-monotonicity compares the literals of one declaration, so each
	// top-level declaration (a parameter table or a function) is one scope.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			checkTimingLiterals(pass, d)
		}
	}
}

// timingLiteralRow is one constant ModeTiming literal, for the
// monotonicity comparison.
type timingLiteralRow struct {
	lit    *ast.CompositeLit
	k      int64
	trcdNS float64
}

// checkTimingLiterals verifies the structural constraints at every
// constant timing-parameter literal in one declaration, wherever the
// declaration lives — re-typed parameter tables outside internal/timing
// are timingliteral's complaint, not a reason to skip verification.
func checkTimingLiterals(pass *Pass, scope ast.Node) {
	var rows []timingLiteralRow
	ast.Inspect(scope, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		named := namedOfExpr(pass.Info, lit)
		if named == nil || !fromTimingPackage(named) {
			return true
		}
		fields := constFields(pass.Info, lit)
		switch named.Obj().Name() {
		case "ModeTiming":
			checkBurstFloor(pass, lit, fields, "TRCDNS", "TRASNS", burstNS, "ns")
			k, okK := fields["K"]
			trcd, okT := fields["TRCDNS"]
			if okK && okT {
				rows = append(rows, timingLiteralRow{lit: lit, k: int64(k), trcdNS: trcd})
			}
		case "DDR3NS":
			checkBurstFloor(pass, lit, fields, "TRCD", "TRAS", burstNS, "ns")
		case "Params":
			checkBurstFloor(pass, lit, fields, "TRCD", "TRAS", 4, "cycles")
		}
		return true
	})
	checkKMonotonic(pass, rows)
}

// checkBurstFloor enforces tRAS >= tRCD + burst when both fields are
// constant in the literal.
func checkBurstFloor(pass *Pass, lit *ast.CompositeLit, fields map[string]float64, trcdName, trasName string, burst float64, unit string) {
	trcd, okC := fields[trcdName]
	tras, okA := fields[trasName]
	if !okC || !okA {
		return
	}
	if tras+1e-9 < trcd+burst {
		pass.Reportf(lit.Pos(),
			"timing literal violates tRAS >= tRCD + burst: %s=%v + %v-%s burst exceeds %s=%v; the row would precharge before the burst drains",
			trcdName, trcd, burst, unit, trasName, tras)
	}
}

// checkKMonotonic enforces Table 3's Early-Access monotonicity across
// the ModeTiming literals of one declaration: TRCDNS may not increase
// with K.
func checkKMonotonic(pass *Pass, rows []timingLiteralRow) {
	for _, hi := range rows {
		for _, lo := range rows {
			if lo.k < hi.k && hi.trcdNS > lo.trcdNS+1e-9 {
				pass.Reportf(hi.lit.Pos(),
					"Table 3 monotonicity violated: K=%d has TRCDNS=%v but K=%d has TRCDNS=%v; a larger clone gang adds cell capacitance and must sense at least as fast (Early-Access)",
					hi.k, hi.trcdNS, lo.k, lo.trcdNS)
			}
		}
	}
}

// constFields extracts the constant numeric fields of a keyed composite
// literal.
func constFields(info *types.Info, lit *ast.CompositeLit) map[string]float64 {
	out := map[string]float64{}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if tv, ok := info.Types[kv.Value]; ok && tv.Value != nil {
			if v, ok := constant.Float64Val(constant.ToFloat(tv.Value)); ok {
				out[key.Name] = v
			}
		}
	}
	return out
}

// namedOfExpr returns the named type of a composite literal.
func namedOfExpr(info *types.Info, lit *ast.CompositeLit) *types.Named {
	t := info.TypeOf(lit)
	if t == nil {
		return nil
	}
	named, _ := t.(*types.Named)
	return named
}

// fromTimingPackage reports whether the named type is declared in an
// internal/timing package (module-prefix independent, fixture-friendly).
func fromTimingPackage(named *types.Named) bool {
	p := named.Obj().Pkg()
	if p == nil {
		return false
	}
	path := p.Path()
	return path == "internal/timing" || strings.HasSuffix(path, "/internal/timing")
}
