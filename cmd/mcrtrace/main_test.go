package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// info round-trips recs through the trace file format and returns the
// -info summary of what was read back.
func info(t *testing.T, recs []trace.Record) string {
	t.Helper()
	var file bytes.Buffer
	if err := trace.WriteRecords(&file, recs); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadRecords(&file)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	writeInfo(&out, back)
	return out.String()
}

func TestInfoEmptyTrace(t *testing.T) {
	got := info(t, nil)
	if strings.Contains(got, "NaN") {
		t.Fatalf("empty trace summary prints NaN:\n%s", got)
	}
	for _, want := range []string{
		"records      : 0\n",
		"reads/writes : 0 / 0 (0.0% reads)\n",
		"MPKI         : 0.0\n",
		"distinct rows: 0\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}
}

func TestInfoSmallTrace(t *testing.T) {
	got := info(t, []trace.Record{
		{Gap: 9, Kind: core.OpRead, Line: 3},
		{Gap: 9, Kind: core.OpWrite, Line: trace.LinesPerRow + 1},
		{Gap: 0, Kind: core.OpRead, Line: 4},
		{Gap: 37, Line: -1},
	})
	want := "records      : 4\n" +
		"instructions : 58\n" +
		"reads/writes : 2 / 1 (66.7% reads)\n" +
		"MPKI         : 51.7\n" +
		"distinct rows: 2\n"
	if got != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", got, want)
	}
}

// TestMain lets a test re-run this binary as mcrtrace itself: with
// MCRTRACE_ARGS set, the process is the command, not the test suite.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MCRTRACE_ARGS"); ok {
		os.Args = append([]string{"mcrtrace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadDumpFlagsExitWithUsage: a negative -base and a non-positive
// -insts are usage errors — exit 2, the message, then the usage text —
// whatever else the command line asks for.
func TestBadDumpFlagsExitWithUsage(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.trace")
	for _, c := range []struct {
		args, want string
	}{
		{"-dump -workload tigr -insts 100000 -base -70000 -o " + out, "-base must not be negative, got -70000"},
		{"-dump -workload tigr -insts 100000 -base -1 -o " + out, "-base must not be negative, got -1"},
		{"-dump -workload tigr -insts 0 -o " + out, "-insts must be positive, got 0"},
		{"-dump -workload tigr -insts -5 -o " + out, "-insts must be positive, got -5"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "MCRTRACE_ARGS="+c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("mcrtrace %s: err = %v, want exit status 2", c.args, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, c.want) || !strings.Contains(msg, "Usage of") {
			t.Errorf("mcrtrace %s: stderr must carry %q and the usage text:\n%s", c.args, c.want, msg)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("mcrtrace %s wrote %s", c.args, out)
		}
	}
}
