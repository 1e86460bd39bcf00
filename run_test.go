package mcrdram_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	mcrdram "repro"
)

// TestRunEngineReportParity pins the engine seam at the facade level: for
// a fixed seed, the stepped reference loop and the event-driven engine
// produce byte-identical WriteReport output (the report renders every
// Result metric, so this is a whole-surface comparison).
func TestRunEngineReportParity(t *testing.T) {
	mode, err := mcrdram.NewMode(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mcrdram.SingleCore("stream", mode)
	cfg.InstsPerCore = 120_000
	cfg.Seed = 7

	cfg.Engine = mcrdram.Stepped
	stepped, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = mcrdram.EventDriven
	event, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var sbuf, ebuf bytes.Buffer
	if err := mcrdram.WriteReport(&sbuf, cfg, stepped); err != nil {
		t.Fatal(err)
	}
	if err := mcrdram.WriteReport(&ebuf, cfg, event); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sbuf.Bytes(), ebuf.Bytes()) {
		t.Errorf("stepped and event-driven reports differ:\n-- stepped --\n%s\n-- event --\n%s", sbuf.String(), ebuf.String())
	}
}

// TestRunDoesNotMutateConfig: Run takes the Config by value and attaches
// what its fields ask for — a registry, a tracer and the integrity
// checker — while the caller's Config stays reusable.
func TestRunDoesNotMutateConfig(t *testing.T) {
	cfg := mcrdram.SingleCore("stream", mcrdram.ModeOff())
	cfg.InstsPerCore = 60_000
	ic := mcrdram.IntegrityDefaults()
	tracer := mcrdram.NewTracer(256)
	cfg.Metrics, cfg.Trace, cfg.Integrity = mcrdram.NewMetrics(), tracer, &ic
	before := cfg
	beforeJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}

	res, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	afterJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(beforeJSON, afterJSON) || cfg.Metrics != before.Metrics ||
		cfg.Trace != before.Trace || cfg.Integrity != before.Integrity {
		t.Error("Run mutated the caller's Config")
	}
	if res.Obs == nil {
		t.Fatal("Config.Metrics set but Result.Obs is nil")
	}
	if res.Obs.Reads == 0 || res.Obs.Commands["ACT"] == 0 {
		t.Errorf("metrics recorded nothing: reads=%d ACT=%d", res.Obs.Reads, res.Obs.Commands["ACT"])
	}
	if tracer.Total() == 0 {
		t.Error("tracer recorded no events")
	}
	if res.Integrity == nil {
		t.Error("Config.Integrity set but Result.Integrity is nil")
	}
}

// TestMultiCoreEmptyWorkloads is the regression test for the empty-slice
// panic: MultiCore must build a config that Run rejects with an error.
func TestMultiCoreEmptyWorkloads(t *testing.T) {
	for _, workloads := range [][]string{nil, {}} {
		cfg := mcrdram.MultiCore(workloads, mcrdram.ModeOff(), false) // must not panic
		if _, err := mcrdram.Run(context.Background(), cfg); err == nil {
			t.Errorf("Run accepted a config with %d workloads", len(workloads))
		} else if !strings.Contains(err.Error(), "workload") {
			t.Errorf("unexpected error for empty workloads: %v", err)
		}
	}
}

// TestObservabilityReportSection checks the report gains its
// observability section exactly when metrics were attached.
func TestObservabilityReportSection(t *testing.T) {
	cfg := mcrdram.SingleCore("stream", mcrdram.ModeOff())
	cfg.InstsPerCore = 60_000

	metered := cfg
	metered.Metrics = mcrdram.NewMetrics()
	res, err := mcrdram.Run(context.Background(), metered)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mcrdram.WriteReport(&buf, metered, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-- observability --") {
		t.Error("report lacks the observability section despite attached metrics")
	}

	bare, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := mcrdram.WriteReport(&buf, cfg, bare); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "-- observability --") {
		t.Error("report has an observability section without attached metrics")
	}
}
