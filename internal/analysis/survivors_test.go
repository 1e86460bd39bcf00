package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// edit is one textual mutation of a product file: old must occur exactly
// once (so a drifted anchor fails loudly instead of mutating nothing) and
// is replaced by new. An empty old creates the file.
type edit struct {
	file, old, new string
}

// TestSurvivorsFlagRealMutations is the reason each registered check is
// still here: on a copy of the real internal/ tree (not a fixture written
// to be caught), the mistake the check exists for is made once, and the
// check must flag it — and must be silent on the unedited tree. A check
// whose Run is stubbed out fails its row.
func TestSurvivorsFlagRealMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	rows := []struct {
		check *Analyzer
		pkg   string   // package under internal/ the check runs on
		edits []edit   // the mistake
		want  []string // each must appear in some finding's message
	}{
		{TimingLiteral, "power", []edit{
			// A Table 3 value re-typed instead of referenced.
			{"power/idd.go", "TRFCNS:   timing.TRFC4GbNS,", "TRFCNS:   260,"},
		}, []string{"tRFC 4Gb"}},
		{TimingConstraint, "timing", []edit{
			// Two K rows' tRCD swapped: Early-Access runs backwards.
			{"timing/timing.go", "{K: 2, M: 2, TRCDNS: 9.94,", "{K: 2, M: 2, TRCDNS: 6.90,"},
			{"timing/timing.go", "{K: 4, M: 2, TRCDNS: 6.90,", "{K: 4, M: 2, TRCDNS: 9.94,"},
			// [4/4x] tRAS below tRCD + the 5 ns burst.
			{"timing/timing.go", "{K: 4, M: 4, TRCDNS: 6.90, TRASNS: 20.00,", "{K: 4, M: 4, TRCDNS: 6.90, TRASNS: 11.00,"},
		}, []string{"Table 3 monotonicity violated", "violates tRAS >= tRCD + burst"}},
		{UnitMix, "sim", []edit{
			// A cycle count accumulated into a nanosecond sum.
			{"sim/metrics.go", "h.SumNS += ns", "h.SumNS += float64(memCycles)"},
		}, []string{"ns- and cycles-denominated"}},
		{Determinism, "sim", []edit{
			{"sim/checkpoint.go", "res.RetiredInsts += cs.Retired", "res.RetiredInsts += cs.Retired + time.Now().UnixNano()%2"},
		}, []string{"time.Now is wall-clock nondeterminism"}},
		{Determinism, "core", []edit{
			// The same leak, hidden behind a helper in another package:
			// flagged at the clock read, in the helper's package.
			{"core/hostjitter.go", "", "package core\n\nimport \"time\"\n\nfunc HostJitter() int64 { return time.Now().UnixNano() % 2 }\n"},
			{"sim/checkpoint.go", "res.RetiredInsts += cs.Retired", "res.RetiredInsts += cs.Retired + core.HostJitter()"},
		}, []string{"time.Now is wall-clock nondeterminism"}},
		{PanicPolicy, "controller", []edit{
			// A library constructor that panics instead of returning.
			{"controller/mapping.go", "\tif err := geom.Validate(); err != nil {\n\t\treturn nil, err\n\t}\n\t// Validate established", "\tif err := geom.Validate(); err != nil {\n\t\tpanic(err)\n\t}\n\t// Validate established"},
		}, []string{"panic"}},
		{CtxPropagate, "runplan", []edit{
			// The executor drops its context on the way into the simulator.
			{"runplan/executor.go", "return run(ctx, cfg)", "return sim.Run(cfg)"},
		}, []string{"call RunContext and propagate the context"}},
		{EnumSwitch, "controller", []edit{
			// One mapping policy silently decoded as the identity.
			{"controller/mapping.go", "\tcase BitReversal:\n\t\ta.Row = reverseBits(a.Row, m.rowBits)\n", ""},
		}, []string{"BitReversal"}},
	}

	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.check.Name] = true
	}
	for _, a := range All() {
		if !covered[a.Name] {
			t.Errorf("check %s has no mutation row: show what it catches on real code, or delete it", a.Name)
		}
	}

	real, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// One loader type-checks the standard library from source; the
	// per-row loaders borrow its importer (and its file set, which the
	// importer's positions live in) so each row only re-checks the module.
	base := NewLoader(real, "repro")
	run := func(l *Loader, root string, a *Analyzer, pkg string) []Diagnostic {
		p, err := l.Load(filepath.Join(root, "internal", pkg), "repro/internal/"+pkg)
		if err != nil {
			t.Fatalf("load %s: %v", pkg, err)
		}
		return RunChecks(p, []*Analyzer{a})
	}
	for _, r := range rows {
		if ds := run(base, real, r.check, r.pkg); len(ds) != 0 {
			t.Errorf("%s on unedited internal/%s: %v", r.check.Name, r.pkg, ds)
		}
	}
	for _, r := range rows {
		t.Run(r.check.Name, func(t *testing.T) {
			root := t.TempDir()
			copyTree(t, filepath.Join(real, "internal"), filepath.Join(root, "internal"), productFile)
			for _, e := range r.edits {
				applyEdit(t, filepath.Join(root, "internal", e.file), e)
			}
			l := NewLoader(root, "repro")
			l.Fset, l.std = base.Fset, base.std
			ds := run(l, root, r.check, r.pkg)
			for _, want := range r.want {
				found := false
				for _, d := range ds {
					if d.Check == r.check.Name && strings.Contains(d.Message, want) {
						found = true
					}
				}
				if !found {
					t.Errorf("%s did not flag the mutation (want a finding containing %q), got %v", r.check.Name, want, ds)
				}
			}
		})
	}
}

// productFile admits the non-test Go files of internal/, minus the
// analyzer itself.
func productFile(rel string, d fs.DirEntry) bool {
	if d.IsDir() {
		return rel != "analysis" && d.Name() != "testdata"
	}
	return strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go")
}

// copyTree copies the files under src that keep admits to dst; a
// directory keep refuses is skipped whole. keep sees paths relative to src.
func copyTree(t *testing.T, src, dst string, keep func(rel string, d fs.DirEntry) bool) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if rel != "." && !keep(rel, d) {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func applyEdit(t *testing.T, path string, e edit) {
	t.Helper()
	if e.old == "" {
		if err := os.WriteFile(path, []byte(e.new), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), e.old); n != 1 {
		t.Fatalf("%s: mutation anchor %q occurs %d times, want exactly 1 — the product code moved; re-anchor the row", e.file, e.old, n)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), e.old, e.new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}
