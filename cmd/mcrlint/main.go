// mcrlint runs the repository's domain-invariant static checks (see
// internal/analysis) over module packages.
//
// Usage:
//
//	mcrlint [-json] [-list] [-checks names] [packages]
//
// Packages are directories relative to the current module, with "./..."
// expanding to every package in the module (the usual invocation is
// "mcrlint ./..."). With no arguments it analyzes the whole module.
//
// -checks selects a comma-separated subset of the registered checks
// (default: all). An unknown name is an invocation error (exit 2) with a
// "did you mean" suggestion — never a silently empty run. -list prints
// the registered check names and docs and exits.
//
// Exit status is 0 when all checks pass, 1 when any diagnostic is
// reported, and 2 when analysis itself fails (parse or type error, bad
// invocation). There is no baseline: any finding fails the run. A
// deliberate exception is suppressed at its source with a
// "//mcrlint:allow <check> [justification]" comment on or directly above
// the offending line; an allow naming a check that is not registered is
// itself a finding.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	checks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	list := flag.Bool("list", false, "list registered checks and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mcrlint [-json] [-list] [-checks names] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		fmt.Print(listChecks())
		return
	}
	os.Exit(run(flag.Args(), *jsonOut, *checks))
}

func run(args []string, jsonOut bool, checks string) int {
	analyzers, err := selectChecks(checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcrlint:", err)
		return 2
	}
	root, module, err := findModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcrlint:", err)
		return 2
	}
	dirs, err := expandPackages(root, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcrlint:", err)
		return 2
	}

	loader := analysis.NewLoader(root, module)
	var diags []analysis.Diagnostic
	failed := false
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcrlint:", err)
			return 2
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.Load(dir, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcrlint:", err)
			failed = true
			continue
		}
		diags = append(diags, analysis.RunChecks(pkg, analyzers)...)
	}
	// The same file can be analyzed under more than one package variant;
	// collapse exact duplicates and fix a deterministic output order
	// across all packages.
	diags = analysis.Dedupe(diags)

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "mcrlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	switch {
	case failed:
		return 2
	case len(diags) > 0:
		return 1
	}
	return 0
}

// listChecks renders the check registry.
func listChecks() string {
	var sb strings.Builder
	for _, a := range analysis.All() {
		fmt.Fprintf(&sb, "%-16s %s\n", a.Name, a.Doc)
	}
	return sb.String()
}

// selectChecks resolves a comma-separated -checks value to analyzers.
// The empty spec selects every registered check; an unknown name is an
// error carrying a "did you mean" suggestion, so a typo can never run an
// empty check set and exit 0 vacuously.
func selectChecks(spec string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if strings.TrimSpace(spec) == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var sel []*analysis.Analyzer
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			msg := fmt.Sprintf("unknown check %q", name)
			if s := analysis.NearestCheck(name); s != "" {
				msg += fmt.Sprintf(" (did you mean %q?)", s)
			}
			return nil, fmt.Errorf("%s; run mcrlint -list for the registered checks", msg)
		}
		if !seen[name] {
			seen[name] = true
			sel = append(sel, a)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("-checks %q selects no checks", spec)
	}
	return sel, nil
}

// findModule walks upward from the working directory to the enclosing
// go.mod and returns its directory and module path.
func findModule() (root, module string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		mod := filepath.Join(dir, "go.mod")
		if _, statErr := os.Stat(mod); statErr == nil {
			module, err := modulePath(mod)
			if err != nil {
				return "", "", err
			}
			return dir, module, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// modulePath reads the module directive from a go.mod file.
func modulePath(file string) (string, error) {
	f, err := os.Open(file)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module directive", file)
}

// expandPackages resolves the argument list to package directories. The
// trailing "..." wildcard matches every package at or below the prefix.
func expandPackages(root string, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	for _, arg := range args {
		base, recursive := strings.CutSuffix(arg, "...")
		base = filepath.Join(root, filepath.FromSlash(strings.TrimSuffix(base, "/")))
		if recursive {
			sub, err := analysis.PackageDirs(base)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", arg, err)
			}
			for _, d := range sub {
				if !seen[d] {
					seen[d] = true
					dirs = append(dirs, d)
				}
			}
			continue
		}
		if !seen[base] {
			seen[base] = true
			dirs = append(dirs, base)
		}
	}
	return dirs, nil
}
