package main

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
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
	sel, err := selectChecks(" determinism, unitmix ,determinism")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "determinism" || sel[1].Name != "unitmix" {
		t.Fatalf("subset selection wrong: %v", sel)
	}
}

func TestSelectChecksEmptySelectsAll(t *testing.T) {
	sel, err := selectChecks("  ")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(analysis.All()); len(sel) != want {
		t.Fatalf("empty spec selected %d checks, want all %d", len(sel), want)
	}
}

func TestSelectChecksUnknownSuggests(t *testing.T) {
	_, err := selectChecks("determinsm")
	if err == nil {
		t.Fatal("unknown check accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown check "determinsm"`) || !strings.Contains(msg, `did you mean "determinism"`) {
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

func TestRunUnknownCheckExitsTwo(t *testing.T) {
	var code int
	stderr := captureStderr(t, func() {
		code = run([]string{"./internal/obs"}, false, "determinsm")
	})
	if code != 2 {
		t.Fatalf("unknown -checks name exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "did you mean") {
		t.Fatalf("stderr missing suggestion:\n%s", stderr)
	}
}

// fullRepoBudget bounds one run of every registered check over the whole
// module (the CI invocation). A run takes a few seconds, almost all of it
// type-checking the module and the standard library from source; the
// budget is an order of magnitude above that, so only a complexity
// regression in the analyzers — not runner jitter — can trip it.
const fullRepoBudget = 30 * time.Second

func TestMcrlintFullRepoWallTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo analysis skipped in -short mode")
	}
	start := time.Now()
	var code int
	stderr := captureStderr(t, func() {
		code = run([]string{"./..."}, false, "")
	})
	if code != 0 {
		t.Fatalf("mcrlint over the clean tree exited %d:\n%s", code, stderr)
	}
	if elapsed := time.Since(start); elapsed > fullRepoBudget {
		t.Fatalf("full-repo analysis took %v, over the %v budget", elapsed, fullRepoBudget)
	}
}
