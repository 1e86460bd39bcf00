package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/sim"
)

func TestParseModeValid(t *testing.T) {
	if m, err := parseMode(1, 0, 1.0); err != nil || m.Enabled() {
		t.Fatalf("k=1 must disable MCR: %v %v", m, err)
	}
	m, err := parseMode(4, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m != mcrtest.Mode(4, 4, 0.5) {
		t.Fatalf("m must default to k, got %v", m)
	}
	if _, err := parseMode(2, 1, 0.25); err != nil {
		t.Fatalf("2/1x rejected: %v", err)
	}
}

func TestParseModeInvalid(t *testing.T) {
	cases := []struct {
		k, m   int
		region float64
		want   string // substring the error must carry
	}{
		{3, 0, 1.0, "valid -k: 1 = off, 2, 4"},
		{8, 0, 1.0, "valid -k: 1 = off, 2, 4"},
		{1, 2, 1.0, "M must be in [1, 1], got 2"},
		{4, 3, 1.0, "valid -m"},
		{4, 8, 1.0, "valid -m"},
		{4, 4, 0.3, "valid -region"},
	}
	for _, c := range cases {
		_, err := parseMode(c.k, c.m, c.region)
		if err == nil {
			t.Errorf("k=%d m=%d region=%g accepted", c.k, c.m, c.region)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("k=%d m=%d region=%g: error %q must contain %q", c.k, c.m, c.region, err, c.want)
		}
	}
}

func TestParseWiring(t *testing.T) {
	if w, err := parseWiring("n1k"); err != nil || w != mcr.KtoN1K {
		t.Fatalf("n1k: %v %v", w, err)
	}
	if w, err := parseWiring("ktok"); err != nil || w != mcr.KtoK {
		t.Fatalf("ktok: %v %v", w, err)
	}
	_, err := parseWiring("diagonal")
	if err == nil {
		t.Fatal("bad wiring accepted")
	}
	if !strings.Contains(err.Error(), "n1k") || !strings.Contains(err.Error(), "ktok") {
		t.Errorf("error must list the valid wirings: %v", err)
	}
}

func TestValidateCheckpointFlags(t *testing.T) {
	// No checkpoint flags: no policy.
	if ck, err := validateCheckpointFlags("", "", 0, false); err != nil || ck != nil {
		t.Fatalf("no flags: %v %v", ck, err)
	}
	// -checkpoint with its interval: lenient resume.
	ck, err := validateCheckpointFlags("run.ckpt", "", 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Path != "run.ckpt" || ck.EveryNCycles != 4096 || !ck.Resume || ck.Strict {
		t.Fatalf("-checkpoint policy = %+v", ck)
	}
	// -restore alone: strict resume, no further writes.
	ck, err = validateCheckpointFlags("", "run.ckpt", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Path != "run.ckpt" || ck.EveryNCycles != 0 || !ck.Resume || !ck.Strict {
		t.Fatalf("-restore policy = %+v", ck)
	}

	// Contradictory combinations, each with a message naming the cure.
	cases := []struct {
		checkpoint, restore string
		every               int64
		compare             bool
		want                string // substring the error must carry
	}{
		{"run.ckpt", "", 0, false, "-checkpoint-every"},
		{"", "", 4096, false, "-checkpoint-every needs"},
		{"a.ckpt", "b.ckpt", 4096, false, "conflict"},
		{"run.ckpt", "", 4096, true, "-compare"},
		{"", "run.ckpt", 0, true, "-compare"},
	}
	for _, c := range cases {
		_, err := validateCheckpointFlags(c.checkpoint, c.restore, c.every, c.compare)
		if err == nil {
			t.Errorf("checkpoint=%q restore=%q every=%d compare=%v accepted", c.checkpoint, c.restore, c.every, c.compare)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("checkpoint=%q restore=%q every=%d: error %q must contain %q", c.checkpoint, c.restore, c.every, err, c.want)
		}
	}
}

func TestValidateNonNegative(t *testing.T) {
	if err := validateNonNegative(0); err != nil {
		t.Fatalf("default rejected: %v", err)
	}
	if err := validateNonNegative(4); err != nil {
		t.Fatalf("positive -jobs rejected: %v", err)
	}
	err := validateNonNegative(-3)
	if want := "-jobs must not be negative, got -3"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("-jobs -3: error %v must contain %q", err, want)
	}
}

// TestMain lets a test re-run this binary as mcrsim itself: with
// MCRSIM_ARGS set, the process is the command, not the test suite.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MCRSIM_ARGS"); ok {
		os.Args = append([]string{"mcrsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFractionFlagsExitWithUsage: a bad value in any flag that sets
// the configuration exits 2 with the message and the usage text, whatever
// -k selects — a fraction flag the mode ignores included. Most are
// refused by sim.Config.Validate, -k, -m and -region by the mode parser,
// and a fraction the mode leaves out of the configuration by mcrsim
// itself. The last row is the control that a valid command line still
// runs.
func TestBadFractionFlagsExitWithUsage(t *testing.T) {
	for _, c := range []struct {
		args string
		code int
		want string // substring stderr must carry
	}{
		{"-insts 2000 -region NaN", 2, "-region must be in [0, 1], got NaN"},
		{"-insts 2000 -region -1", 2, "-region must be in [0, 1], got -1"},
		{"-insts 2000 -alloc4 NaN", 2, "-alloc4 must be in [0, 1], got NaN"},
		{"-insts 2000 -k 4 -region NaN", 2, "Region must be in [0, 1], got NaN"},
		{"-insts 2000 -k 4 -alloc NaN", 2, "AllocRatio must be in [0, 1], got NaN"},
		{"-insts 2000 -k 4 -m -3", 2, "M must be in [1, 4], got -3"},
		{"-insts 2000 -k 1 -m -3", 2, "M must be in [1, 1], got -3"},
		{"-insts 2000 -k 4 -alloc 1.5", 2, "AllocRatio must be in [0, 1], got 1.5"},
		{"-insts 2000 -combined -alloc2 +Inf", 2, "AllocRatio2 must be in [0, 1], got +Inf"},
		{"-insts 2000 -k -1", 2, "K must be in [1, 4], got -1"},
		{"-insts 2000 -k 3", 2, "K and M must be powers of two, got K=3"},
		{"-insts 2000 -k 2 -m 3", 2, "M must be in [1, 2], got 3"},
		{"-insts 2000 -fault-weak 2", 2, "WeakFraction must be in [0, 1], got 2"},
		{"-insts 2000 -fault-weak -0.1", 2, "WeakFraction must be in [0, 1], got -0.1"},
		{"-insts 2000 -fault-weak NaN", 2, "WeakFraction must be in [0, 1], got NaN"},
		{"-insts 2000 -degrade-after -2", 2, "DowngradeAfter must be in [0, "},
		{"-insts 2000 -fault-weak +Inf", 2, "WeakFraction must be in [0, 1], got +Inf"},
		{"-insts 2000 -wiring bogus", 2, `unknown wiring "bogus" (valid: n1k, ktok)`},
		{"-insts 2000 -workload nope", 2, `unknown workload "nope" (valid: comm1,`},
		{"-insts 2000 -workload tigr,nope", 2, `unknown workload "nope"`},
		{"-insts 0", 2, "InstsPerCore must be in [1, "},
		{"-insts 2000 -checkpoint x.ckpt -checkpoint-every -1", 2, "EveryNCycles must be in [0, "},
		{"-insts 2000 -restore x.ckpt -checkpoint-every -1", 2, "EveryNCycles must be in [0, "},
		{"-insts -5", 2, "got -5"},
		{"-insts 2000 -k 4 -region 0.5 -alloc 0.1", 0, ""},
	} {
		checkUsageExit(t, c.args, c.code, c.want)
	}
}

// TestValidateRestoreConfig: a -restore whose snapshot is missing, is not
// a snapshot or was taken under other flags (here -fault-seed) exits 2
// with the message and the usage text, from the run's typed error; a
// -restore under the snapshot's own flags runs.
func TestValidateRestoreConfig(t *testing.T) {
	dir := t.TempDir()
	snap, junk := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "junk.ckpt")
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 5_000
	cfg.Fault = &fault.Config{Seed: 7, WeakFraction: 0.05, TailMinFrac: 0.0005, TailMaxFrac: 0.005}
	s, err := sim.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(junk, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	const restore = "-workload stream -insts 5000 -fault-weak 0.05 -restore " // + the snapshot path

	for _, c := range []struct {
		args string
		code int
		want string // substring stderr must carry
	}{
		{restore + snap + " -fault-seed 8", 2, "configuration does not match the checkpointed run"},
		{restore + snap + " -fault-seed 8", 2, "(check -fault-seed, -seed, -insts, -workload and the mode flags)"},
		{restore + filepath.Join(dir, "absent.ckpt"), 2, "no such file or directory"},
		{restore + junk, 2, "snapshot: bad magic"},
		{restore + snap + " -fault-seed 7", 0, ""},
	} {
		checkUsageExit(t, c.args, c.code, c.want)
	}
}

// mcrsim runs this test binary as mcrsim with args. The child is tied to a
// context that the test's cleanup cancels and that ends a second before
// the test's deadline, when go test's -timeout would stop the binary
// without its cleanups: either way a child still running is killed, so no
// test leaves one behind. The caller waits for it.
func mcrsim(t *testing.T, args string) *exec.Cmd {
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
	cmd.Env = append(os.Environ(), "MCRSIM_ARGS="+args)
	return cmd
}

// checkUsageExit runs this test binary as mcrsim with args and checks its
// exit status; a non-zero status must come with want and the usage text
// on stderr.
func checkUsageExit(t *testing.T, args string, code int, want string) {
	t.Helper()
	cmd := mcrsim(t, args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	got := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		got = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("mcrsim %s: %v", args, err)
	}
	if got != code {
		t.Errorf("mcrsim %s: exit status %d, want %d; stderr:\n%s", args, got, code, stderr.String())
		return
	}
	if code == 0 {
		return
	}
	if msg := stderr.String(); !strings.Contains(msg, want) || !strings.Contains(msg, "Usage of") {
		t.Errorf("mcrsim %s: stderr must carry %q and the usage text:\n%s", args, want, msg)
	}
}

// TestKilledCheckpointedRunResumes kills a checkpointed mcrsim process
// (SIGKILL, so no deferred cleanup runs) at seeded points and resumes it
// until a run finishes. With a snapshot every 4096 memory cycles most of
// a run's time is spent inside snapshot.WriteFile, so kills land there
// too. Every kill may leave at most run.ckpt and run.ckpt.tmp; the
// finished run must print the uninterrupted run's result and leave the
// directory empty.
func TestKilledCheckpointedRunResumes(t *testing.T) {
	const flags = "-workload tigr -k 4 -insts 3000000 -json -checkpoint-every 4096 -checkpoint "
	run := func(dir string) *exec.Cmd {
		cmd := mcrsim(t, flags+filepath.Join(dir, "run.ckpt"))
		cmd.Stdout = new(bytes.Buffer)
		return cmd
	}
	result := func(cmd *exec.Cmd) string {
		var res sim.Result
		if err := json.Unmarshal(cmd.Stdout.(*bytes.Buffer).Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		res.Wall = 0
		if res.Obs != nil {
			res.Obs.EngineSteppedCycles, res.Obs.EngineSkippedCycles = 0, 0
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
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

	ref := run(t.TempDir())
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := result(ref)

	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	kills := 0
	for attempt := 0; ; attempt++ {
		cmd := run(dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		var err error
		if attempt < 10 {
			select {
			case err = <-done:
			case <-time.After(time.Duration(30+rng.Intn(150)) * time.Millisecond):
				cmd.Process.Kill()
				<-done
				kills++
				t.Logf("kill %d leaves %v", kills, files(dir))
				for _, name := range files(dir) {
					if name != "run.ckpt" && name != "run.ckpt.tmp" {
						t.Fatalf("after kill %d the directory holds %q (all: %v)", kills, name, files(dir))
					}
				}
				continue
			}
		} else {
			err = <-done
		}
		if err != nil {
			t.Fatalf("run %d: %v", attempt, err)
		}
		if got := result(cmd); got != want {
			t.Fatalf("after %d kills the result differs from the uninterrupted run's:\n got %s\nwant %s", kills, got, want)
		}
		break
	}
	if kills == 0 {
		t.Fatal("no run was killed; the kill points are too late")
	}
	if names := files(dir); len(names) != 0 {
		t.Fatalf("a finished run left %v behind", names)
	}
}
