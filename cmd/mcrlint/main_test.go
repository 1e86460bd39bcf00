package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// captureStderr runs f with os.Stderr redirected and returns what it
// wrote.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	f()
	w.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestSelectChecksSubset(t *testing.T) {
	sel, err := selectChecks(" hotalloc, hotlock ,hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "hotalloc" || sel[1].Name != "hotlock" {
		t.Fatalf("subset selection wrong: %v", sel)
	}
}

func TestSelectChecksEmptySelectsAll(t *testing.T) {
	sel, err := selectChecks("  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) < 11 {
		t.Fatalf("empty spec selected %d checks, want all", len(sel))
	}
}

func TestSelectChecksUnknownSuggests(t *testing.T) {
	_, err := selectChecks("hotaloc")
	if err == nil {
		t.Fatal("unknown check accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown check "hotaloc"`) || !strings.Contains(msg, `did you mean "hotalloc"`) {
		t.Fatalf("error missing the did-you-mean suggestion: %s", msg)
	}
}

func TestSelectChecksNoSuggestionWhenFar(t *testing.T) {
	_, err := selectChecks("zzzzzz")
	if err == nil {
		t.Fatal("unknown check accepted")
	}
	if strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("nonsense name got a suggestion: %s", err)
	}
}

func TestSelectChecksAllSeparators(t *testing.T) {
	if _, err := selectChecks(",,,"); err == nil {
		t.Fatal("spec selecting nothing accepted")
	}
}

func TestSelectChecksSubstratePrefix(t *testing.T) {
	sel, err := selectChecks("flow:")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("flow: selected no checks")
	}
	for _, a := range sel {
		if a.Substrate != "flow" {
			t.Fatalf("flow: selected %s (substrate %s)", a.Name, a.Substrate)
		}
	}
}

func TestSelectChecksSubstrateMixedWithNames(t *testing.T) {
	sel, err := selectChecks("heap:,timingrange,hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, a := range sel {
		if names[a.Name] {
			t.Fatalf("check %s selected twice", a.Name)
		}
		names[a.Name] = true
	}
	// hotalloc rides the heap: prefix and is named again; hotbox comes
	// with the prefix; timingrange is named explicitly.
	for _, want := range []string{"hotalloc", "hotbox", "timingrange"} {
		if !names[want] {
			t.Fatalf("expected %s in selection, got %v", want, names)
		}
	}
}

func TestSelectChecksUnknownSubstrate(t *testing.T) {
	_, err := selectChecks("flo:")
	if err == nil {
		t.Fatal("unknown substrate accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown substrate "flo"`) || !strings.Contains(msg, "interval") {
		t.Fatalf("error missing the registered-substrate listing: %s", msg)
	}
}

func TestListChecksShowsSubstrates(t *testing.T) {
	long := listChecks(true)
	for _, want := range []string{"timingrange", "enumswitch", "interval", "flow", "heap", "syntax"} {
		if !strings.Contains(long, want) {
			t.Fatalf("-list-checks output missing %q:\n%s", want, long)
		}
	}
	if short := listChecks(false); strings.Contains(short, "interval ") {
		t.Fatalf("-list output unexpectedly carries a substrate column:\n%s", short)
	}
}

func TestRunUnknownCheckExitsTwo(t *testing.T) {
	var code int
	stderr := captureStderr(t, func() {
		code = run([]string{"./internal/obs"}, false, "hotaloc", "", "")
	})
	if code != 2 {
		t.Fatalf("unknown -checks name exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "did you mean") {
		t.Fatalf("stderr missing suggestion:\n%s", stderr)
	}
}

func TestEditDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"hotalloc", "hotalloc", 0},
		{"hotaloc", "hotalloc", 1},
		{"hotlock", "hotbox", 3},
		{"abc", "", 3},
	} {
		if got := editDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestStaleEntriesScopedToRanChecks(t *testing.T) {
	known := map[string]bool{
		"hotalloc|a.go|gone":       true,
		"hotalloc|a.go|still here": true,
		"detflow|b.go|not run":     true,
	}
	seen := map[string]bool{"hotalloc|a.go|still here": true}
	ran := map[string]bool{"hotalloc": true}
	got := staleEntries(known, seen, ran)
	if len(got) != 1 || got[0] != "hotalloc|a.go|gone" {
		t.Fatalf("staleEntries = %v, want only the reported-by-nothing hotalloc entry", got)
	}
}

// TestAllowSuppressedFindingIsNotStale pins the allow × baseline
// interplay end to end on the real module: the completions append in
// EnqueueRead carries an //mcrlint:allow hotalloc, so a baseline entry
// recording that finding must count as present — not warned stale —
// while a baseline entry matching nothing must be.
func TestAllowSuppressedFindingIsNotStale(t *testing.T) {
	suppressedMsg := "append may grow its backing array, reachable from hot-path root controller.(*Controller).EnqueueRead; the per-cycle hot path must stay allocation-free"
	entries := []baselineEntry{
		{Check: "hotalloc", File: "internal/controller/controller.go", Message: suppressedMsg},
		{Check: "hotalloc", File: "internal/controller/controller.go", Message: "finding that no longer exists"},
	}
	data, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var code int
	stderr := captureStderr(t, func() {
		code = run([]string{"./internal/controller"}, false, "hotalloc", base, "")
	})
	if code != 0 {
		t.Fatalf("run exited %d:\n%s", code, stderr)
	}
	if strings.Contains(stderr, suppressedMsg) {
		t.Errorf("allow-suppressed finding warned as stale:\n%s", stderr)
	}
	if !strings.Contains(stderr, "stale baseline entry") ||
		!strings.Contains(stderr, "finding that no longer exists") {
		t.Errorf("genuinely stale entry not warned:\n%s", stderr)
	}
}

// fullRepoBudget bounds one run of every registered check over the whole
// module (the CI invocation). BenchmarkMcrlintFullRepo measures ~3.6s on
// the reference machine (recorded in EXPERIMENTS.md) with all fourteen
// checks — syntax, flow, heap, shape and interval substrates; the budget
// is an order of magnitude above that, so only a complexity regression
// in the analyzers — not runner jitter — can trip it.
const fullRepoBudget = 30 * time.Second

func TestMcrlintFullRepoWallTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo analysis skipped in -short mode")
	}
	start := time.Now()
	var code int
	stderr := captureStderr(t, func() {
		code = run([]string{"./..."}, false, "", "", "")
	})
	if code != 0 {
		t.Fatalf("mcrlint over the clean tree exited %d:\n%s", code, stderr)
	}
	if elapsed := time.Since(start); elapsed > fullRepoBudget {
		t.Fatalf("full-repo analysis took %v, over the %v budget", elapsed, fullRepoBudget)
	}
}

// BenchmarkMcrlintFullRepo pins the analyzer's wall time over the whole
// module — the number EXPERIMENTS.md records and fullRepoBudget guards.
func BenchmarkMcrlintFullRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if code := run([]string{"./..."}, false, "", "", ""); code != 0 {
			b.Fatalf("mcrlint exited %d", code)
		}
	}
}
