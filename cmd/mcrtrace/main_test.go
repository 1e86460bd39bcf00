package main

import (
	"bytes"
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
