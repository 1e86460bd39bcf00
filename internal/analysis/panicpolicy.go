// Check panicpolicy: the product does not panic. Invalid input (a
// configuration, a trace, a snapshot) surfaces as a returned error, and
// command legality is the scheduler's to keep, checked in tests by the
// protocol oracle (internal/dram/dramtest) rather than asserted by the
// device. Test files are not loaded by the driver, and deliberate
// exceptions (test-only constructors) carry //mcrlint:allow panicpolicy.

package analysis

import (
	"go/ast"
	"go/types"
)

// PanicPolicy is the panicpolicy check.
var PanicPolicy = &Analyzer{
	Name: "panicpolicy",
	Doc:  "libraries return errors; they do not panic",
	Run:  runPanicPolicy,
}

func runPanicPolicy(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				pass.Reportf(call.Pos(),
					"panic in library code; return an error instead (or annotate //mcrlint:allow panicpolicy with a justification)")
			}
			return true
		})
	}
}
