package snapshot_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the guarded-run entry of FuzzSnapshotDecode's seed corpus")

// guardedEntry is the seed-corpus file that gives FuzzSnapshotDecode a real
// snapshot to mutate: a guarded run (integrity with faults, resilience,
// registry, tracer) cut mid-flight, so both packed arrays are populated.
const guardedEntry = "testdata/fuzz/FuzzSnapshotDecode/guarded_run_v3"

// guardedSnapshot runs a small guarded simulation and returns the bytes of
// its first periodic snapshot.
func guardedSnapshot(t *testing.T) []byte {
	t.Helper()
	mode, err := mcr.NewMode(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/run.ckpt"
	var data []byte
	cfg := sim.DefaultConfig("tigr")
	cfg.InstsPerCore, cfg.Seed, cfg.DRAM.Mode = 20_000, 7, mode
	cfg.Fault = &fault.Config{WeakFraction: 0.05, TailMinFrac: 5e-4, TailMaxFrac: 5e-3}
	cfg.Resilience = &sim.ResilienceConfig{DowngradeAfter: 4, Quarantine: true}
	cfg.Metrics, cfg.Trace = obs.NewRegistry(), obs.NewTracer(128)
	cfg.Checkpoint = &sim.CheckpointConfig{Path: path, EveryNCycles: 4096, OnWrite: func(int64) {
		if data == nil {
			if data, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if data == nil {
		t.Fatal("the run wrote no snapshot")
	}
	return data
}

// TestGuardedCorpusEntry keeps the corpus entry from rotting: it must
// still be a snapshot of the current format with rows and events in it.
// After a format change, regenerate it with
//
//	go test ./internal/snapshot -run TestGuardedCorpusEntry -update-corpus
func TestGuardedCorpusEntry(t *testing.T) {
	if *updateCorpus {
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", guardedSnapshot(t))
		if err := os.WriteFile(guardedEntry, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(guardedEntry)
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("%s is not a one-value fuzz corpus file", guardedEntry)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(bytes.NewReader([]byte(data)))
	if err != nil {
		t.Fatalf("the corpus entry no longer decodes (rerun with -update-corpus after a format change): %v", err)
	}
	if st.Integrity == nil || len(st.Integrity.Rows) == 0 || st.Trace == nil || len(st.Trace.Buf) == 0 {
		t.Fatal("the corpus entry carries no shadowed rows or no trace events")
	}
	// A snapshot taken today has the entry's shape: same format, both
	// arrays populated.
	fresh, err := snapshot.Decode(bytes.NewReader(guardedSnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Integrity.Rows) == 0 || len(fresh.Trace.Buf) != len(st.Trace.Buf) {
		t.Fatalf("a fresh guarded snapshot holds %d row bytes and %d events, the entry %d events", len(fresh.Integrity.Rows), len(fresh.Trace.Buf), len(st.Trace.Buf))
	}
}
