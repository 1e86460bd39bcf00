// mcrlint runs the repository's domain-invariant static checks (see
// internal/analysis) over module packages.
//
// Usage:
//
//	mcrlint [-json] [-list] [-list-checks] [-checks names] [-baseline file] [-write-baseline file] [packages]
//
// Packages are directories relative to the current module, with "./..."
// expanding to every package in the module (the usual invocation is
// "mcrlint ./..."). With no arguments it analyzes the whole module.
//
// -checks selects a comma-separated subset of the registered checks
// (default: all). An entry ending in a colon selects by analysis
// substrate instead of by name: "flow:" runs every flow-substrate check,
// "heap:,interval:" the hot-path trio plus timingrange. An unknown name is
// an invocation error (exit 2) with a "did you mean" suggestion — never
// a silently empty run; an unknown substrate lists the registered ones.
// -list prints the registered check names and docs and exits;
// -list-checks additionally shows each check's substrate.
//
// With -baseline, findings recorded in the baseline file are demoted to
// stderr warnings and do not affect the exit status; only findings
// absent from the baseline fail the run. Baseline entries are keyed by
// (check, module-relative file, message) — line numbers are deliberately
// left out so unrelated edits shifting a finding by a few lines do not
// invalidate the baseline. Baseline entries for checks that were run but
// no longer report (not even in allow-suppressed form) are warned about
// as stale. -write-baseline records the current findings to the named
// file and exits 0.
//
// Exit status is 0 when all checks pass, 1 when any non-baselined
// diagnostic is reported, and 2 when analysis itself fails (parse or
// type error, bad invocation). Individual findings can be suppressed
// with a "//mcrlint:allow <check> [justification]" comment on or
// directly above the offending line.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	checks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	listShort := flag.Bool("list", false, "list registered checks and exit")
	listLong := flag.Bool("list-checks", false, "list registered checks with their substrate and exit")
	baseline := flag.String("baseline", "", "demote findings recorded in this baseline file to warnings")
	writeBaseline := flag.String("write-baseline", "", "record current findings to this file and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mcrlint [-json] [-list] [-list-checks] [-checks names] [-baseline file] [-write-baseline file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listShort || *listLong {
		fmt.Print(listChecks(*listLong))
		return
	}
	os.Exit(run(flag.Args(), *jsonOut, *checks, *baseline, *writeBaseline))
}

func run(args []string, jsonOut bool, checks, baseline, writeBaseline string) int {
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
	var diags, suppressed []analysis.Diagnostic
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
		kept, sup := analysis.RunChecksCollect(pkg, analyzers)
		diags = append(diags, kept...)
		suppressed = append(suppressed, sup...)
	}
	// The same file can be analyzed under more than one package variant;
	// collapse exact duplicates and fix a deterministic output order
	// across all packages.
	diags = analysis.Dedupe(diags)

	if writeBaseline != "" {
		if err := saveBaseline(writeBaseline, root, diags); err != nil {
			fmt.Fprintln(os.Stderr, "mcrlint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "mcrlint: wrote %d baseline entr%s to %s\n",
			len(diags), plural(len(diags), "y", "ies"), writeBaseline)
		return 0
	}
	if baseline != "" {
		known, err := loadBaseline(baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcrlint:", err)
			return 2
		}
		// A baseline entry still counts as present when its finding was
		// allow-suppressed; only entries for checks that ran and truly
		// reported nothing are stale.
		seen := map[string]bool{}
		for _, d := range diags {
			seen[baselineKey(root, d)] = true
		}
		for _, d := range suppressed {
			seen[baselineKey(root, d)] = true
		}
		ran := map[string]bool{}
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		for _, key := range staleEntries(known, seen, ran) {
			fmt.Fprintf(os.Stderr, "mcrlint: stale baseline entry (no longer reported): %s\n", key)
		}
		kept := diags[:0]
		for _, d := range diags {
			if known[baselineKey(root, d)] {
				fmt.Fprintf(os.Stderr, "mcrlint: baselined: %s\n", d)
				continue
			}
			kept = append(kept, d)
		}
		diags = kept
	}

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

// listChecks renders the check registry; withSubstrate adds the
// substrate column (-list-checks).
func listChecks(withSubstrate bool) string {
	var sb strings.Builder
	for _, a := range analysis.All() {
		if withSubstrate {
			fmt.Fprintf(&sb, "%-14s %-9s %s\n", a.Name, a.Substrate, a.Doc)
		} else {
			fmt.Fprintf(&sb, "%-14s %s\n", a.Name, a.Doc)
		}
	}
	return sb.String()
}

// selectChecks resolves a comma-separated -checks value to analyzers.
// The empty spec selects every registered check; an entry ending in a
// colon ("flow:") selects every check on that substrate; an unknown name
// is an error carrying a "did you mean" suggestion, so a typo can never
// run an empty check set and exit 0 vacuously.
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
	add := func(a *analysis.Analyzer) {
		if !seen[a.Name] {
			seen[a.Name] = true
			sel = append(sel, a)
		}
	}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if sub, isSubstrate := strings.CutSuffix(name, ":"); isSubstrate {
			matched := false
			for _, a := range all {
				if a.Substrate == sub {
					add(a)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("unknown substrate %q; registered substrates: %s",
					sub, strings.Join(substrates(all), ", "))
			}
			continue
		}
		a, ok := byName[name]
		if !ok {
			msg := fmt.Sprintf("unknown check %q", name)
			if s := nearestCheck(name, all); s != "" {
				msg += fmt.Sprintf(" (did you mean %q?)", s)
			}
			return nil, fmt.Errorf("%s; run mcrlint -list for the registered checks", msg)
		}
		add(a)
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("-checks %q selects no checks", spec)
	}
	return sel, nil
}

// substrates lists the distinct substrate names, sorted.
func substrates(all []*analysis.Analyzer) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range all {
		if !seen[a.Substrate] {
			seen[a.Substrate] = true
			out = append(out, a.Substrate)
		}
	}
	sort.Strings(out)
	return out
}

// nearestCheck suggests the registered check closest to name, when the
// edit distance is small enough to look like a typo.
func nearestCheck(name string, all []*analysis.Analyzer) string {
	best, bestDist := "", 3 // suggest within edit distance 2
	for _, a := range all {
		if d := editDistance(name, a.Name); d < bestDist {
			best, bestDist = a.Name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// staleEntries returns the baseline keys (sorted) that belong to a
// check that ran this invocation yet matched no finding, kept or
// allow-suppressed.
func staleEntries(known, seen, ran map[string]bool) []string {
	var stale []string
	for key := range known {
		check, _, _ := strings.Cut(key, "|")
		if ran[check] && !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return stale
}

// baselineKey is the identity of a finding for baseline matching:
// check, module-relative file path, and message. Line and column are
// deliberately excluded so edits elsewhere in a file do not invalidate
// the baseline.
func baselineKey(root string, d analysis.Diagnostic) string {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return d.Check + "|" + file + "|" + d.Message
}

// baselineEntry is one recorded finding in a baseline file.
type baselineEntry struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Message string `json:"message"`
}

// loadBaseline reads a baseline file into a key set.
func loadBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []baselineEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	known := make(map[string]bool, len(entries))
	for _, e := range entries {
		known[e.Check+"|"+e.File+"|"+e.Message] = true
	}
	return known, nil
}

// saveBaseline records the findings as a baseline file.
func saveBaseline(path, root string, diags []analysis.Diagnostic) error {
	entries := []baselineEntry{}
	seen := map[string]bool{}
	for _, d := range diags {
		key := baselineKey(root, d)
		if seen[key] {
			continue
		}
		seen[key] = true
		parts := strings.SplitN(key, "|", 3)
		entries = append(entries, baselineEntry{Check: parts[0], File: parts[1], Message: parts[2]})
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
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
