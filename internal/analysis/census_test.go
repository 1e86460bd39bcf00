//go:build census && unix

package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMutationCensus says what each test pins. On one copy of the module
// it makes each mutant of mutants_test.go in turn, runs `go test ./...`,
// records the top-level tests that fail, and reverts the edit, so the
// packages a mutant does not reach stay cached. The unmutated copy must
// pass, every mutant must be killed, and the table must equal
// testdata/census.txt; on a mismatch the new table is printed.
//
// It runs the suite once per mutant, which outlasts go test's default
// timeout:
//
//	go test -tags census -timeout 0 -run TestMutationCensus ./internal/analysis
func TestMutationCensus(t *testing.T) {
	real, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if end, ok := t.Deadline(); ok && time.Until(end) < time.Duration(len(mutants)+1)*30*time.Second {
		t.Fatalf("the census runs the suite %d times, about 30 s each on 2 vCPUs; rerun with -timeout 0", len(mutants)+1)
	}
	root := t.TempDir()
	copyTree(t, real, root, func(rel string, d fs.DirEntry) bool {
		// Dot directories hold no code; bench/ and cmd/mcrbench/ are
		// modules of their own, outside ./...
		return !d.IsDir() || !strings.HasPrefix(d.Name(), ".") && rel != "bench" && rel != filepath.Join("cmd", "mcrbench")
	})
	start := time.Now()
	if failed := failingTests(t, root); len(failed) != 0 {
		t.Fatalf("the unmutated copy fails %v", failed)
	}
	t.Logf("unmutated suite: %v", time.Since(start).Round(time.Second))

	var table strings.Builder
	for _, m := range mutants {
		path := filepath.Join(root, "internal", m.file)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		applyEdit(t, path, m.edit)
		at := time.Now()
		build := exec.Command("go", "build", "./...")
		build.Dir = root
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("mutant %q does not compile: %v\n%s", m.name, err, out)
		}
		killers := failingTests(t, root)
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d killers in %v", m.name, len(killers), time.Since(at).Round(time.Second))
		if len(killers) == 0 {
			t.Errorf("mutant %q survives: add the test that pins its claim, or record why it is equivalent", m.name)
		}
		fmt.Fprintln(&table, m.name)
		for _, k := range killers {
			fmt.Fprintf(&table, "\t%s\n", k)
		}
	}
	t.Logf("census of %d mutants: %v", len(mutants), time.Since(start).Round(time.Second))
	want, err := os.ReadFile(filepath.Join("testdata", "census.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := table.String(); got != string(want) {
		t.Errorf("the census differs from testdata/census.txt; the new table:\n%s", got)
	}
}

// unrecorded are the tests the table leaves out: the anchor check, which
// fails on every mutant by design, and the tests that cut or time a run
// by the wall clock, which catch a mutant or not with the host's speed.
var unrecorded = map[string]bool{
	"repro/internal/analysis:TestMutantAnchorsOccurOnce":         true,
	"repro/internal/sim:TestRandomDeadlineResume":                true,
	"repro/internal/runplan:TestExecutorResumesAfterSpecTimeout": true,
	"repro/cmd/mcrsim:TestKilledCheckpointedRunResumes":          true,
	"repro/cmd/reproduce:TestKilledCheckpointedPlanResumes":      true,
	"repro/cmd/mcrlint:TestMcrlintFullRepoWallTimeBudget":        true,
}

// failingTests runs the module's tests in dir and returns the top-level
// tests that failed as package:Test, sorted and minus the unrecorded; a
// package that failed outside any test (a build error, a timeout) is
// package:(package).
func failingTests(t *testing.T, dir string) []string {
	t.Helper()
	cmd := exec.Command("go", "test", "-json", "-timeout", "2m", "./...")
	cmd.Dir = dir
	// A test binary killed by the timeout can leave a child it started (the
	// CLIs' kill-and-resume tests run themselves) spinning and holding the
	// output pipe: stop waiting for the pipe, then end the whole group.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.WaitDelay = 10 * time.Second
	out, err := cmd.Output()
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) && !errors.Is(err, exec.ErrWaitDelay) {
		t.Fatal(err)
	}
	// A package's own fail comes after its tests': one without a failed
	// test failed outside any.
	byPkg := map[string][]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var ev struct{ Action, Package, Test string }
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("go test -json: %v", err)
		}
		switch {
		case ev.Action != "fail" || strings.Contains(ev.Test, "/"):
		case ev.Test != "":
			byPkg[ev.Package] = append(byPkg[ev.Package], ev.Test)
		case len(byPkg[ev.Package]) == 0:
			byPkg[ev.Package] = []string{"(package)"}
		}
	}
	var failed []string
	for pkg, tests := range byPkg {
		for _, test := range tests {
			if !unrecorded[pkg+":"+test] {
				failed = append(failed, pkg+":"+test)
			}
		}
	}
	slices.Sort(failed)
	return failed
}
