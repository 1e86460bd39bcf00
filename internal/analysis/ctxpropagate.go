// Check ctxpropagate: a function that receives a context.Context must not
// drop it by calling the context-free variant of an API that has a
// context-aware one (sim.Run when sim.RunContext exists, and the general
// X/XContext pattern). Dropping the context silently breaks cancellation —
// Ctrl-C and test timeouts stop cutting simulations short.

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPropagate is the ctxpropagate check.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "functions holding a context.Context must call the ...Context variant when one exists",
	Run:  runCtxPropagate,
}

func runCtxPropagate(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !receivesContext(pass, fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.Info, call)
				if callee == nil {
					return true
				}
				if variant := contextVariant(pass, callee); variant != nil {
					pass.Reportf(call.Pos(),
						"%s receives a context.Context but calls %s; call %s and propagate the context",
						fn.Name.Name, callee.Name(), variant.Name())
				}
				return true
			})
		}
	}
}

// receivesContext reports whether the declaration has a context.Context
// parameter.
func receivesContext(pass *Pass, fn *ast.FuncDecl) bool {
	for _, field := range fn.Type.Params.List {
		if isContextType(pass.Info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// calleeFunc resolves the called function or method, or nil for function
// values, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// contextVariant returns the <name>Context sibling of callee that takes a
// context.Context first, or nil when the callee is fine to call as-is.
func contextVariant(pass *Pass, callee *types.Func) *types.Func {
	name := callee.Name()
	if strings.HasSuffix(name, "Context") || callee.Pkg() == nil {
		return nil
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || takesContext(sig) {
		return nil
	}
	want := name + "Context"
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, callee.Pkg(), want)
	} else {
		obj = callee.Pkg().Scope().Lookup(want)
	}
	variant, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	// The variant must be callable from the analyzed package and actually
	// accept a context.
	if callee.Pkg() != pass.Pkg && !variant.Exported() {
		return nil
	}
	vsig, ok := variant.Type().(*types.Signature)
	if !ok || !takesContext(vsig) {
		return nil
	}
	return variant
}

// takesContext reports whether the signature's first parameter is a
// context.Context.
func takesContext(sig *types.Signature) bool {
	return sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}
