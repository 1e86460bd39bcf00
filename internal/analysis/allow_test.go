package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseAllows(t *testing.T, src string) allowSet {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return collectAllows(fset, []*ast.File{f})
}

func TestAllowMultipleDirectivesOneComment(t *testing.T) {
	set := parseAllows(t, `package p

func f() {
	_ = 1 //mcrlint:allow timing first why //mcrlint:allow determinism second why
}
`)
	for _, check := range []string{"timing", "determinism"} {
		if !set.at("a.go", 4, check) {
			t.Errorf("directive for %q on line 4 not collected: %v", check, set)
		}
	}
	if set.at("a.go", 4, "panicpolicy") {
		t.Error("unnamed check suppressed")
	}
}

func TestAllowProseMentionIsNotADirective(t *testing.T) {
	// Only a comment that begins with the directive is one; doc prose
	// quoting it neither suppresses nor counts as an unknown check.
	set := parseAllows(t, `package p

// Exceptions carry //mcrlint:allow panicpolicy.
var x = 1 // see //mcrlint:allow <check> [justification]
`)
	if len(set) != 0 {
		t.Errorf("prose mention produced suppressions: %v", set)
	}
}

func parseUnknownAllows(t *testing.T, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// No analyzers selected: the unknown-allow diagnostics come out of
	// RunChecks whichever checks run.
	return RunChecks(&Package{Fset: fset, Files: []*ast.File{f}}, nil)
}

func TestAllowUnknownCheckIsADiagnostic(t *testing.T) {
	ds := parseUnknownAllows(t, `package p

func f() {
	g() //mcrlint:allow retiredcheck a check that was deleted
	//mcrlint:allow determinsm typo
	h()
	i() //mcrlint:allow unitmix registered //mcrlint:allow gonecheck chained and gone
}
`)
	want := []struct {
		line, col      int
		name, nearest  string
		wantSuggestion bool
	}{
		{4, 6, "retiredcheck", "", false},
		{5, 2, "determinsm", "determinism", true},
		{7, 6, "gonecheck", "", false},
	}
	if len(ds) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(ds), len(want), ds)
	}
	for i, w := range want {
		d := ds[i]
		if d.Check != unknownAllowCheck || d.Pos.Filename != "a.go" || d.Pos.Line != w.line || d.Pos.Column != w.col {
			t.Errorf("diagnostic %d = %v, want [%s] at a.go:%d:%d", i, d, unknownAllowCheck, w.line, w.col)
		}
		if !strings.Contains(d.Message, `unknown check "`+w.name+`"`) {
			t.Errorf("diagnostic %d does not name %q: %s", i, w.name, d.Message)
		}
		if got := strings.Contains(d.Message, "did you mean"); got != w.wantSuggestion {
			t.Errorf("diagnostic %d suggestion = %v, want %v: %s", i, got, w.wantSuggestion, d.Message)
		}
		if w.wantSuggestion && !strings.Contains(d.Message, `did you mean "`+w.nearest+`"`) {
			t.Errorf("diagnostic %d does not suggest %q: %s", i, w.nearest, d.Message)
		}
	}
}

func TestAllowRegisteredChecksAreSilent(t *testing.T) {
	src := "package p\n\nfunc f() {\n"
	for _, a := range All() {
		src += "\tg() //mcrlint:allow " + a.Name + " justified\n"
	}
	src += "}\n"
	if ds := parseUnknownAllows(t, src); len(ds) != 0 {
		t.Errorf("allows naming registered checks were flagged: %v", ds)
	}
}

func TestAllowUnknownCheckCannotSuppressItself(t *testing.T) {
	ds := parseUnknownAllows(t, `package p

//mcrlint:allow allow nice try
var x = 1 //mcrlint:allow gonecheck gone
`)
	if len(ds) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (the self-allow is itself unknown): %v", len(ds), ds)
	}
}

func TestEditDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"determinism", "determinism", 0},
		{"determinsm", "determinism", 1},
		{"unitmix", "determinism", 9},
		{"abc", "", 3},
	} {
		if got := editDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAllowWrongCheckDoesNotSuppress(t *testing.T) {
	set := parseAllows(t, `package p

func f() {
	_ = 1 //mcrlint:allow timing justified
}
`)
	d := Diagnostic{
		Check: "determinism",
		Pos:   token.Position{Filename: "a.go", Line: 4},
	}
	if set.allows(d) {
		t.Error("allow for timing suppressed a determinism diagnostic")
	}
	d.Check = "timing"
	if !set.allows(d) {
		t.Error("allow for timing did not suppress a timing diagnostic")
	}
}

func TestAllowPrecedingLineCoversMultiLineExpr(t *testing.T) {
	// The directive sits on the line above a multi-line expression; the
	// diagnostic anchors at the expression's first line and must be
	// suppressed, but the continuation lines must not inherit it.
	set := parseAllows(t, `package p

func f() int {
	//mcrlint:allow timing spread call
	return g(
		1,
		2)
}
`)
	if !set.at("a.go", 5, "timing") {
		t.Error("line directly below the directive not suppressed")
	}
	if set.at("a.go", 6, "timing") || set.at("a.go", 7, "timing") {
		t.Error("continuation lines wrongly suppressed")
	}
}

func TestAllowTrailingComma(t *testing.T) {
	set := parseAllows(t, `package p

var x = 1 //mcrlint:allow unitmix, legacy constant
`)
	if !set.at("a.go", 3, "unitmix") {
		t.Error("check name with trailing comma not recognized")
	}
}

func TestAllowBareDirectiveIgnored(t *testing.T) {
	// A directive with no check name suppresses nothing.
	set := parseAllows(t, `package p

var x = 1 //mcrlint:allow
`)
	if len(set) != 0 {
		t.Errorf("bare directive produced suppressions: %v", set)
	}
}

func TestDedupe(t *testing.T) {
	d := func(file string, line int, check, msg string) Diagnostic {
		return Diagnostic{Check: check, Message: msg,
			Pos: token.Position{Filename: file, Line: line}}
	}
	ds := []Diagnostic{
		d("b.go", 2, "timing", "x"),
		d("a.go", 1, "timing", "x"),
		d("a.go", 1, "timing", "x"), // exact duplicate
		d("a.go", 1, "unitmix", "x"),
		d("a.go", 1, "timing", "y"),
	}
	out := Dedupe(ds)
	if len(out) != 4 {
		t.Fatalf("Dedupe kept %d, want 4: %v", len(out), out)
	}
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			t.Fatalf("duplicate survived at %d: %v", i, out[i])
		}
		if diagnosticLess(out[i], out[i-1]) {
			t.Fatalf("output not sorted at %d: %v before %v", i, out[i-1], out[i])
		}
	}
}
