package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/obs"
)

// TestStallAttributionPartitionsReadLatency pins the observability
// acceptance criterion: the per-component stall breakdown of every
// retired read sums exactly to the controller's arrival-to-completion
// read latency — the attribution partitions, it does not estimate.
func TestStallAttributionPartitionsReadLatency(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode mcr.Mode
	}{
		{"baseline", mcr.Off()},
		{"mcr-4-4x", mcrtest.Mode(4, 4, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg("tigr", tc.mode)
			cfg.Metrics = obs.NewRegistry()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Obs == nil {
				t.Fatal("Metrics attached but Result.Obs is nil")
			}
			if got, want := res.Obs.Stall.Total(), res.Ctrl.TotalReadLatency; got != want {
				t.Fatalf("stall components sum to %d cycles, controller read latency is %d", got, want)
			}
			if got, want := res.Obs.Reads, res.Ctrl.ReadsDone; got != want {
				t.Fatalf("observed %d reads, controller retired %d", got, want)
			}
			for c := obs.StallComponent(0); c < obs.NumStallComponents; c++ {
				if res.Obs.Stall[c] < 0 {
					t.Fatalf("stall component %s is negative: %d", c, res.Obs.Stall[c])
				}
			}
			hits := res.Obs.RowHits + res.Obs.RowMisses + res.Obs.RowConflicts
			if hits == 0 {
				t.Fatal("no row-buffer outcomes recorded")
			}
			if res.Obs.Commands["ACT"] == 0 || res.Obs.Commands["REF"] == 0 {
				t.Fatalf("command counters missing activity: %v", res.Obs.Commands)
			}
		})
	}
}

// TestTraceExportDeterministic pins the tracer acceptance criterion: a
// fixed-seed run exports valid Chrome trace_event JSON, and re-running
// the identical configuration reproduces the byte-identical trace.
func TestTraceExportDeterministic(t *testing.T) {
	export := func() (int64, []byte) {
		cfg := quickCfg("comm2", mcrtest.Mode(4, 4, 0.5))
		cfg.Trace = obs.NewTracer(obs.DefaultTraceCap)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Trace.WriteChrome(&buf, "fixed-seed"); err != nil {
			t.Fatal(err)
		}
		return cfg.Trace.Total(), buf.Bytes()
	}
	total1, json1 := export()
	total2, json2 := export()
	if total1 == 0 {
		t.Fatal("no events traced")
	}
	if !json.Valid(json1) {
		t.Fatal("exported Chrome trace is not valid JSON")
	}
	if total1 != total2 {
		t.Fatalf("event count differs across identical runs: %d vs %d", total1, total2)
	}
	if !bytes.Equal(json1, json2) {
		t.Fatal("trace export differs across identical runs")
	}
}
