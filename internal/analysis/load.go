// Package loading: parse one directory of non-test Go files and type-check
// it. Module-internal imports are resolved recursively from source; stdlib
// imports go through the go/importer source importer, so the loader needs
// neither pre-compiled export data nor anything outside the standard
// library.

package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis/flow"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path (or logical path for fixtures)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader // back-reference for cross-package summaries
}

// Loader loads and caches packages of one module.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string // absolute directory containing go.mod
	ModuleName string // module path, e.g. "repro"

	std    types.ImporterFrom
	pkgs   map[string]*Package // import path -> loaded package
	errs   map[string]error    // import path -> load failure (memoized)
	allows allowSet            // allow comments across every loaded package
	store  *flow.Store         // lazily built cross-package summary store
}

// NewLoader builds a loader for the module rooted at root.
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModuleName: module,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       map[string]*Package{},
		errs:       map[string]error{},
		allows:     allowSet{},
	}
}

// Summaries returns the loader's cross-package function-summary store.
// Summaries are computed bottom-up on demand: because imports load
// before importers, every callee in a dependency package is resolvable
// by the time its caller is analyzed. Taint is suppressed at sources
// whose line carries an allow for detflow (or determinism, the
// syntactic sibling).
func (l *Loader) Summaries() *flow.Store {
	if l.store == nil {
		l.store = flow.NewStore(
			func(path string) *flow.Pkg {
				p, ok := l.pkgs[path]
				if !ok {
					return nil
				}
				return &flow.Pkg{Fset: p.Fset, Files: p.Files, Types: p.Types, Info: p.Info}
			},
			func(pos token.Position) bool {
				return l.allows.at(pos.Filename, pos.Line, "detflow") ||
					l.allows.at(pos.Filename, pos.Line, "determinism")
			},
		)
	}
	return l.store
}

// Import implements types.Importer: module-internal packages load from
// source under ModuleRoot, everything else is delegated to the stdlib
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModuleName || strings.HasPrefix(path, l.ModuleName+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModuleName), "/")
		pkg, err := l.Load(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.ModuleRoot, 0)
}

// Load parses and type-checks the non-test Go files of dir under the given
// import path. Results (and failures) are memoized by path.
func (l *Loader) Load(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if err, ok := l.errs[path]; ok {
		return nil, err
	}
	pkg, err := l.load(dir, path)
	if err != nil {
		l.errs[path] = err
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) load(dir, path string) (*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no non-test Go files", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	l.allows.merge(collectAllows(l.Fset, files))
	return &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		loader: l,
	}, nil
}

// goFileNames lists dir's buildable non-test .go files, sorted for
// deterministic loading.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// PackageDirs walks root and returns every directory holding at least one
// non-test Go file, skipping testdata, hidden and underscore-prefixed
// directories — the "./..." expansion of the driver and the fixture
// harness.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFileNames(p)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
