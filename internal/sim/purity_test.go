package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPerCyclePackagesCannotBlockOrReadTheHost pins, from the source, what
// makes the packages a simulated cycle runs through safe to call millions
// of times from one goroutine: they import nothing that can block, sleep,
// lock or read the host (no sync, time, os, io, context, math/rand), and
// they contain no goroutine, select, channel send or channel type. The
// concurrency of a sweep lives in internal/runplan's executor, and in the
// locks of internal/trace's set-up memos (the seeded registers and the
// streams' row counts), which the executor's workers share; the race detector
// watches both.
func TestPerCyclePackagesCannotBlockOrReadTheHost(t *testing.T) {
	stdlib := map[string]bool{
		"errors": true, "fmt": true, "math": true, "math/bits": true,
		"sort": true, "strings": true,
	}
	fset := token.NewFileSet()
	for _, pkg := range []string{"core", "timing", "mcr", "mech", "dram", "controller", "cpu"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", pkg, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !stdlib[path] && !strings.HasPrefix(path, "repro/internal/") {
					t.Errorf("%s: imports %q; a per-cycle package may import only errors, fmt, math, math/bits, sort, strings and repro/internal/*",
						fset.Position(imp.Pos()), path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				what := ""
				switch n.(type) {
				case *ast.GoStmt:
					what = "a go statement"
				case *ast.SelectStmt:
					what = "a select"
				case *ast.SendStmt:
					what = "a channel send"
				case *ast.ChanType:
					what = "a channel type"
				}
				if what != "" {
					t.Errorf("%s: %s in a per-cycle package", fset.Position(n.Pos()), what)
				}
				return true
			})
		}
	}
}
