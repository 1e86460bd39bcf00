// Fixture harness in the style of golang.org/x/tools' analysistest, hand
// rolled because the module is stdlib-only. Each directory under
// testdata/src/<check>/ is one miniature module (module path "repro", so
// path-scoped checks see the same internal/... shapes as the real tree);
// the harness loads every package in it, runs exactly the <check> analyzer,
// and compares the diagnostics against `// want "regexp"` comments on the
// offending lines. Every want must be matched by a diagnostic on its line
// and every diagnostic must be wanted.

package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// wantRe matches a `// want "..."` or `// want `...“ expectation.
var wantRe = regexp.MustCompile("// want (`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

func TestFixtures(t *testing.T) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		check := e.Name()
		a := byName[check]
		if a == nil {
			t.Errorf("testdata/src/%s: no registered check with that name", check)
			continue
		}
		covered[check] = true
		t.Run(check, func(t *testing.T) {
			runFixture(t, filepath.Join(root, check), a)
		})
	}
	for _, a := range All() {
		if !covered[a.Name] {
			t.Errorf("check %s has no fixture under testdata/src/%s", a.Name, a.Name)
		}
	}
}

func runFixture(t *testing.T, moduleRoot string, a *Analyzer) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(abs, "repro")
	dirs, err := PackageDirs(abs)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatalf("%s: empty fixture", moduleRoot)
	}
	// Load every package first, then match wants globally.
	var pkgs []*Package
	var diags []Diagnostic
	for _, dir := range dirs {
		rel, err := filepath.Rel(abs, dir)
		if err != nil {
			t.Fatal(err)
		}
		path := "repro"
		if rel != "." {
			path = "repro/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.Load(dir, path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
		diags = append(diags, RunChecks(pkg, []*Analyzer{a})...)
	}
	diags = Dedupe(diags)
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	checkExpectations(t, wants, diags)
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants extracts the `// want` expectations of one package.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := unquoteWant(m[1])
				if err != nil {
					t.Errorf("%s: bad want pattern %s: %v", pkg.Fset.Position(c.Pos()), m[1], err)
					continue
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Errorf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), pat, err)
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

func checkExpectations(t *testing.T, wants []*expectation, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		if w := matchWant(wants, d); w != nil {
			w.matched = true
		} else {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// matchWant finds the first unmatched expectation on the diagnostic's line
// whose pattern matches its message.
func matchWant(wants []*expectation, d Diagnostic) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			return w
		}
	}
	return nil
}

// unquoteWant strips the backtick or double-quote wrapping of a want
// pattern.
func unquoteWant(s string) (string, error) {
	if s[0] == '`' {
		return s[1 : len(s)-1], nil
	}
	return strconv.Unquote(s)
}
