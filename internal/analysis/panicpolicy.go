// Check panicpolicy: the only legitimate panics in this repository are the
// command-legality assertions of internal/dram — the controller promises
// CanIssue before Issue, so an illegal command is a programming error, not
// an input error. Everywhere else (the facade, the experiment harness, the
// mcr configuration layer) invalid input is expected and must surface as a
// returned error. Test files are not loaded by the driver, and deliberate
// exceptions (test-only constructors) carry //mcrlint:allow panicpolicy.

package analysis

import (
	"go/ast"
	"go/types"
)

// PanicPolicy is the panicpolicy check.
var PanicPolicy = &Analyzer{
	Name: "panicpolicy",
	Doc:  "panic only in internal/dram command-legality paths; libraries return errors",
	Run:  runPanicPolicy,
}

func runPanicPolicy(pass *Pass) {
	if pass.InPackage("dram") {
		return
	}
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
					"panic outside internal/dram command-legality paths; return an error instead (or annotate //mcrlint:allow panicpolicy with a justification)")
			}
			return true
		})
	}
}
