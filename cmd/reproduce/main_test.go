package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as reproduce itself: with
// REPRODUCE_ARGS set, the process is the command, not the test suite.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("REPRODUCE_ARGS"); ok {
		os.Args = append([]string{"reproduce"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reproduce runs this test binary as reproduce with args. The child is
// tied to a context that the test's cleanup cancels and that ends a second
// before the test's deadline, when go test's -timeout would stop the
// binary without its cleanups: either way a child still running is killed,
// so no test leaves one behind. The caller waits for it.
func reproduce(t *testing.T, args string) *exec.Cmd {
	t.Helper()
	ctx := context.Background()
	if d, ok := t.Deadline(); ok {
		var stop context.CancelFunc
		ctx, stop = context.WithDeadline(ctx, d.Add(-time.Second))
		t.Cleanup(stop)
	}
	ctx, cancel := context.WithCancel(ctx)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "REPRODUCE_ARGS="+args)
	return cmd
}

// TestBadModeFlagsExitWithUsage: an unknown -fig, -metric or -extra, and a
// command line that names no study, are usage errors. Each exits 2 with
// the message and the usage text before anything runs.
func TestBadModeFlagsExitWithUsage(t *testing.T) {
	for _, c := range []struct {
		args string
		want string // substring stderr must carry
	}{
		{"-fig 99", "unknown figure/table 99"},
		{"-fig 11 -metric bogus", `unknown metric "bogus"`},
		{"-extra bogus", `unknown extra study "bogus"`},
		{"-insts 1000", "pass -fig N, -extra NAME or -all"},
	} {
		cmd := reproduce(t, c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("reproduce %s: want exit status 2, got %v", c.args, err)
		}
		if code := exit.ExitCode(); code != 2 {
			t.Errorf("reproduce %s: exit status %d, want 2; stderr:\n%s", c.args, code, stderr.String())
			continue
		}
		if msg := stderr.String(); !strings.Contains(msg, c.want) || !strings.Contains(msg, "Usage of") {
			t.Errorf("reproduce %s: stderr must carry %q and the usage text:\n%s", c.args, c.want, msg)
		}
	}
}

func TestValidateMetric(t *testing.T) {
	for _, ok := range []string{"exec", "readlat", "edp"} {
		if err := validateMetric(ok); err != nil {
			t.Errorf("metric %q rejected: %v", ok, err)
		}
	}
	err := validateMetric("latency")
	if err == nil {
		t.Fatal("bad metric accepted")
	}
	for _, want := range []string{"exec", "readlat", "edp", "latency"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error must list %q: %v", want, err)
		}
	}
}

func TestValidateFig(t *testing.T) {
	for _, ok := range []int{3, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18} {
		if err := validateFig(ok); err != nil {
			t.Errorf("fig %d rejected: %v", ok, err)
		}
	}
	for _, bad := range []int{0, 1, 2, 9, 19, -3} {
		err := validateFig(bad)
		if err == nil {
			t.Errorf("fig %d accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "11") {
			t.Errorf("error must list the valid figures: %v", err)
		}
	}
}

func TestValidateExtra(t *testing.T) {
	for _, ok := range []string{"combined", "tldram", "shootout", "wiring", "scheduler", "rowpolicy", "repeat", "resilience"} {
		if err := validateExtra(ok); err != nil {
			t.Errorf("extra %q rejected: %v", ok, err)
		}
	}
	err := validateExtra("nope")
	if err == nil {
		t.Fatal("bad extra accepted")
	}
	if !strings.Contains(err.Error(), "tldram") || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error must name the input and the valid studies: %v", err)
	}
}

func TestRunRejectsUnknownFig(t *testing.T) {
	// run() is only reached through validateFig, but keep its own guard.
	if err := run(99, nil, "exec"); err == nil {
		t.Fatal("unknown figure must error")
	}
}

func TestValidateSpecTimeout(t *testing.T) {
	for _, c := range []struct {
		d  time.Duration
		ok bool
	}{
		{0, true},
		{30 * time.Second, true},
		{-5 * time.Second, false},
		{-1, false},
	} {
		err := validateSpecTimeout(c.d)
		if (err == nil) != c.ok {
			t.Errorf("validateSpecTimeout(%v) = %v, want ok=%v", c.d, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), c.d.String()) {
			t.Errorf("error must name the value: %v", err)
		}
	}
}

func TestValidateJobs(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{
		{0, true},
		{1, true},
		{4, true},
		{-1, false},
		{-3, false},
	} {
		err := validateJobs(c.n)
		if (err == nil) != c.ok {
			t.Errorf("validateJobs(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprint(c.n)) {
			t.Errorf("error must name the value: %v", err)
		}
	}
}

func TestValidateInsts(t *testing.T) {
	for _, c := range []struct {
		n  int64
		ok bool
	}{
		{0, true},
		{20_000, true},
		{-1, false},
		{-5, false},
	} {
		err := validateInsts(c.n)
		if (err == nil) != c.ok {
			t.Errorf("validateInsts(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprint(c.n)) {
			t.Errorf("error must name the value: %v", err)
		}
	}
}

func TestValidateSeeds(t *testing.T) {
	for _, c := range []struct {
		extra string
		n     int
		ok    bool
	}{
		{"repeat", 5, true},
		{"repeat", 1, true},
		{"repeat", 0, false},
		{"repeat", -2, false},
		{"", 0, true}, // -seeds is read only by -extra repeat
		{"shootout", -2, true},
	} {
		err := validateSeeds(c.extra, c.n)
		if (err == nil) != c.ok {
			t.Errorf("validateSeeds(%q, %d) = %v, want ok=%v", c.extra, c.n, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprint(c.n)) {
			t.Errorf("error must name the value: %v", err)
		}
	}
}

// TestKilledCheckpointedPlanResumes kills a checkpointed reproduce process
// (SIGKILL, so no deferred cleanup runs) at seeded points and reruns it
// until a run finishes. With a snapshot every 4096 memory cycles the
// workers spend much of their time inside snapshot writes, so kills land
// there too. Every kill may leave only one snapshot, one result and their
// temp files per simulation, named by its config key. A simulation whose
// progress line a killed run printed had finished and kept its result, so
// no later run may simulate it again, unless the kill came after the
// plan's last simulation, when it may have begun removing its files. The
// finished run must print the
// uninterrupted run's tables byte for byte and leave the directory empty.
func TestKilledCheckpointedPlanResumes(t *testing.T) {
	const flags = "-fig 11 -insts 20000 -v -checkpoint-every 4096 -checkpoint-dir "
	run := func(dir string) *exec.Cmd {
		cmd := reproduce(t, flags+dir)
		cmd.Stdout = new(bytes.Buffer)
		cmd.Stderr = new(bytes.Buffer)
		return cmd
	}
	files := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	fileName := regexp.MustCompile(`^[0-9a-f]{16}\.(ckpt|result)(\.tmp)?$`)
	// A progress line names its plan, progress, cell and kind; the cell and
	// kind name the simulation.
	progress := regexp.MustCompile(`(?m)^\S+ \[\d+/\d+\] (.+?): `)
	lastDone := regexp.MustCompile(`(?m), 0 pending$`)
	simulated := func(cmd *exec.Cmd) []string {
		var cells []string
		for _, m := range progress.FindAllStringSubmatch(cmd.Stderr.(*bytes.Buffer).String(), -1) {
			cells = append(cells, m[1])
		}
		return cells
	}

	ref := run(t.TempDir())
	start := time.Now()
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	// Kills land 5–65 ms into a run, stretched by how far the
	// uninterrupted run exceeded 100 ms: the race detector slows the
	// build several times over, and some kills must still land after a
	// simulation has finished.
	stretch := max(1, time.Since(start).Seconds()/0.1)
	want := ref.Stdout.(*bytes.Buffer).Bytes()
	all := simulated(ref)
	finished := map[string]bool{}
	for _, cell := range all {
		finished[cell] = true
	}
	if len(all) == 0 || len(finished) != len(all) {
		t.Fatalf("the uninterrupted run printed %d progress lines for %d distinct cells", len(all), len(finished))
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	clear(finished)
	rng := rand.New(rand.NewSource(1))
	kills, reused := 0, 0
	for attempt := 0; ; attempt++ {
		cmd := run(dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		var err error
		killed := false
		if attempt < 8 {
			select {
			case err = <-done:
			case <-time.After(time.Duration(stretch * float64(time.Duration(5+rng.Intn(60))*time.Millisecond))):
				cmd.Process.Kill()
				<-done
				killed = true
			}
		} else {
			err = <-done
		}
		cells := simulated(cmd)
		for _, cell := range cells {
			if finished[cell] {
				t.Fatalf("run %d simulated %q again; an earlier killed run had finished it", attempt, cell)
			}
			finished[cell] = true
		}
		if killed {
			kills++
			reused += len(cells)
			if lastDone.MatchString(cmd.Stderr.(*bytes.Buffer).String()) {
				// The plan's last simulation had finished (its progress
				// counts reused ones too): the kill may have landed while
				// the plan removed its files, so the next run may
				// simulate the removed ones again.
				clear(finished)
			}
			t.Logf("kill %d after %d simulations leaves %d files", kills, len(cells), len(files(dir)))
			for _, name := range files(dir) {
				if !fileName.MatchString(name) {
					t.Fatalf("after kill %d the directory holds %q", kills, name)
				}
			}
			continue
		}
		if err != nil {
			t.Fatalf("run %d: %v", attempt, err)
		}
		if got := cmd.Stdout.(*bytes.Buffer).Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("after %d kills the output differs from the uninterrupted run's:\n got %s\nwant %s", kills, got, want)
		}
		break
	}
	if kills == 0 || reused == 0 {
		t.Fatalf("%d kills finished %d simulations; the kill points are too early or too late", kills, reused)
	}
	if names := files(dir); len(names) != 0 {
		t.Fatalf("a finished run left %v behind", names)
	}
}
