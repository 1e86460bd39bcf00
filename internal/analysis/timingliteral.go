// Check timingliteral: DRAM timing values must not be re-typed as raw
// literals outside internal/timing (and internal/core, which hosts the
// clock conventions the timing package builds on). Hand-copied constants
// are how reproductions silently drift from the paper's Table 3: the same
// number pasted in two packages stops being the same number after the next
// calibration. A literal is flagged only when it both matches a known
// timing value and sits in timing-flavored context (an identifier such as
// tRFC, RefreshInterval or RetentionMs nearby), so ordinary counts and
// sizes that happen to collide with a timing value stay quiet.

package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strings"
)

// knownTimingValues maps a timing value to the paper table it comes from,
// used in the diagnostic to point at the canonical constant. Small bare
// cycle counts (tCAS=11, tCWD=8, tCCD=4, ...) are deliberately absent:
// they collide with ordinary queue depths and counters too often for the
// keyword guard to save them.
var knownTimingValues = map[float64]string{
	13.75:  "tRCD/tRP (DDR3-1600 baseline, Table 3)",
	35:     "tRAS (DDR3-1600 baseline, Table 3)",
	110:    "tRFC 1Gb (Table 3)",
	260:    "tRFC 4Gb (Table 3)",
	7812.5: "tREFI (DDR3-1600)",
	7.5:    "tWTR/tRTP (DDR3-1600)",
	64:     "retention window ms (timing.RetentionWindowMs)",
	9.94:   "tRCD 2x (Table 3)",
	6.90:   "tRCD 4x (Table 3)",
	37.52:  "tRAS [1/2x] (Table 3)",
	21.46:  "tRAS [2/2x] (Table 3)",
	46.51:  "tRAS [1/4x] (Table 3)",
	22.78:  "tRAS [2/4x] (Table 3)",
	20:     "tRAS [4/4x] (Table 3)",
	118.46: "tRFC 1Gb [1/2x] (Table 3)",
	81.79:  "tRFC 1Gb [2/2x] (Table 3)",
	138.21: "tRFC 1Gb [1/4x] (Table 3)",
	84.62:  "tRFC 1Gb [2/4x] (Table 3)",
	76.15:  "tRFC 1Gb [4/4x] (Table 3)",
	280:    "tRFC 4Gb [1/2x] (Table 3)",
	193.33: "tRFC 4Gb [2/2x] (Table 3)",
	326.67: "tRFC 4Gb [1/4x] (Table 3)",
	180:    "tRFC 4Gb [4/4x] (Table 3)",
}

// timingKeywords are the lowercase substrings that mark an identifier as
// timing context.
var timingKeywords = []string{
	"trcd", "tras", "trfc", "trp", "trefi", "twtr", "trtp", "tfaw",
	"trrd", "twr", "tcas", "tcwd", "tccd", "tburst",
	"refresh", "retention", "timing",
}

// TimingLiteral is the timingliteral check.
var TimingLiteral = &Analyzer{
	Name: "timingliteral",
	Doc:  "DRAM timing values outside internal/timing must reference the named constant, not a raw literal",
	Run:  runTimingLiteral,
}

func runTimingLiteral(pass *Pass) {
	// The definition sites of the canonical constants are exempt, as is
	// this framework itself (its value table would otherwise self-flag).
	if pass.InPackage("timing") || pass.InPackage("core") || pass.InPackage("analysis") {
		return
	}
	inspectWithStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		lit, ok := n.(*ast.BasicLit)
		if !ok || (lit.Kind != token.INT && lit.Kind != token.FLOAT) {
			return
		}
		v := constant.MakeFromLiteral(lit.Value, lit.Kind, 0)
		f, ok := constant.Float64Val(v)
		if !ok {
			return
		}
		what, known := knownTimingValues[f]
		if !known {
			return
		}
		if kw := timingContext(lit, stack); kw != "" {
			pass.Reportf(lit.Pos(),
				"raw DRAM timing literal %s near %q looks like %s; reference the named constant in internal/timing",
				lit.Value, kw, what)
		}
	})
}

// timingContext climbs from the literal through its enclosing expressions
// and statements, gathering the identifiers a reader would use to name the
// value (composite-literal key, callee, assignment target, declaration
// name, sibling operands, enclosing function for returns). It returns the
// first timing keyword hit, or "".
func timingContext(lit *ast.BasicLit, stack []ast.Node) string {
	var names []string
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.KeyValueExpr:
			names = append(names, identNames(parent.Key)...)
		case *ast.CallExpr:
			if !within(lit, parent.Fun) {
				names = append(names, identNames(parent.Fun)...)
			}
		case *ast.BinaryExpr:
			names = append(names, identNames(parent.X)...)
			names = append(names, identNames(parent.Y)...)
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				names = append(names, identNames(lhs)...)
			}
		case *ast.ValueSpec:
			for _, name := range parent.Names {
				names = append(names, name.Name)
			}
		case *ast.FuncDecl:
			// The function's own name counts as context only when the
			// literal flows out of it through a return statement.
			if returnsLiteral(lit, stack[i:]) {
				names = append(names, parent.Name.Name)
			}
		}
	}
	for _, name := range names {
		lower := strings.ToLower(name)
		for _, kw := range timingKeywords {
			if strings.Contains(lower, kw) {
				return name
			}
		}
	}
	return ""
}

// returnsLiteral reports whether the path from the function decl down to
// the literal goes through a return statement.
func returnsLiteral(lit *ast.BasicLit, path []ast.Node) bool {
	for _, n := range path {
		if _, ok := n.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}

// identNames flattens the identifiers of a (possibly selector) expression.
func identNames(e ast.Expr) []string {
	switch e := e.(type) {
	case *ast.Ident:
		return []string{e.Name}
	case *ast.SelectorExpr:
		return append(identNames(e.X), e.Sel.Name)
	case *ast.ParenExpr:
		return identNames(e.X)
	case *ast.UnaryExpr:
		return identNames(e.X)
	case *ast.CallExpr:
		return identNames(e.Fun)
	}
	return nil
}

// within reports whether pos of inner lies inside outer's range.
func within(inner *ast.BasicLit, outer ast.Node) bool {
	return inner.Pos() >= outer.Pos() && inner.End() <= outer.End()
}
