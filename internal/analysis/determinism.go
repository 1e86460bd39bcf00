// Check determinism: simulation results must be a pure function of the
// configuration and seed. The run-plan engine memoizes baselines and
// promises byte-identical sweep output, and every package under
// internal/ either makes a result (sim, dram, controller, cpu, mech,
// fault, ...) or carries one to the reader (report, obs, snapshot), so
// none of them — the analyzer itself excepted — may consult wall-clock
// time, draw from the global (unseeded) math/rand source, or let random
// map iteration order leak into anything ordered: appends, printed
// output, or floating-point accumulation. Wall-time throughput
// instrumentation and loops whose order provably cannot matter (sorted
// immediately below, integer sums) are deliberate exceptions, annotated
// with an allow directive naming this check at each site.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism is the determinism check.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no wall-clock time, unseeded math/rand, or map-order-dependent output in any package under internal/ (the analyzer excepted)",
	Run:  runDeterminism,
}

// globalRandFuncs draw from (or reseed) the global math/rand source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

func runDeterminism(pass *Pass) {
	if !strings.Contains("/"+pass.Path+"/", "/internal/") || pass.InPackage("analysis") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	switch pkgNameOf(pass.Info, id) {
	case "time":
		if sel.Sel.Name == "Now" {
			pass.Reportf(call.Pos(),
				"time.Now is wall-clock nondeterminism in simulation code; derive timing from simulated cycles, or annotate //mcrlint:allow determinism for instrumentation")
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the global math/rand source; use a *rand.Rand built from rand.NewSource with an explicit seed", sel.Sel.Name)
		}
	}
}

// checkMapRange flags ranging over a map when the loop body feeds ordered
// state: appends to a slice, writes output, or accumulates into a plain
// (non-keyed) variable. Writes keyed by the map key itself stay quiet —
// their end state is order-free.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	sink := mapRangeSink(rng.Body)
	if sink == "" {
		return
	}
	pass.Reportf(rng.Pos(),
		"range over map feeds %s; iteration order is randomized — iterate a sorted or first-appearance key slice instead", sink)
}

// mapRangeSink classifies the first order-sensitive operation in body.
func mapRangeSink(body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					sink = "an append (slice order)"
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if hasAnyPrefix(name, "Print", "Fprint", "Write") {
					sink = "output (" + name + ")"
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				return true
			}
			// Compound assignment (+=, -=, ...): order-sensitive for
			// floats unless the target is keyed per element.
			for _, lhs := range n.Lhs {
				if _, keyed := lhs.(*ast.IndexExpr); !keyed {
					sink = "a compound accumulation (" + n.Tok.String() + ")"
				}
			}
		}
		return true
	})
	return sink
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if len(s) >= len(p) && s[:len(p)] == p {
			return true
		}
	}
	return false
}
