package mcrdram_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	mcrdram "repro"
)

func TestNewModeAndOff(t *testing.T) {
	m, err := mcrdram.NewMode(4, 2, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "mode [2/4x/75%reg]" {
		t.Fatalf("mode string = %q", m)
	}
	if _, err := mcrdram.NewMode(3, 1, 0.5); err == nil {
		t.Fatal("invalid mode must be rejected")
	}
	if mcrdram.ModeOff().Enabled() {
		t.Fatal("off mode must be disabled")
	}
}

func TestTable3Export(t *testing.T) {
	rows := mcrdram.Table3()
	if len(rows) != 6 {
		t.Fatalf("Table 3 export has %d rows", len(rows))
	}
	d, err := mcrdram.DeriveTable3(mcrdram.DefaultCircuit(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.TRCDNS <= 0 || d.TRASNS <= 0 {
		t.Fatal("derived timings must be positive")
	}
}

func TestWorkloadCatalogueExport(t *testing.T) {
	if len(mcrdram.Workloads()) != 18 {
		t.Fatalf("catalogue = %d entries", len(mcrdram.Workloads()))
	}
	if len(mcrdram.WorkloadNames()) != 16 {
		t.Fatalf("single-core names = %d", len(mcrdram.WorkloadNames()))
	}
}

func TestRunSingleCore(t *testing.T) {
	mode, err := mcrdram.NewMode(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mcrdram.SingleCore("tigr", mode)
	cfg.InstsPerCore = 80_000
	res, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := mcrdram.SingleCore("tigr", mcrdram.ModeOff())
	base.InstsPerCore = 80_000
	bres, err := mcrdram.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCPUCycles >= bres.ExecCPUCycles {
		t.Fatalf("MCR (%d) must beat baseline (%d) through the public API",
			res.ExecCPUCycles, bres.ExecCPUCycles)
	}
}

func TestRunMultiCore(t *testing.T) {
	cfg := mcrdram.MultiCore([]string{"comm1", "libq", "stream", "tigr"}, mcrdram.ModeOff(), false)
	cfg.InstsPerCore = 40_000
	res, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadCount == 0 {
		t.Fatal("multi-core run produced no reads")
	}
}

func TestMaxRefreshIntervalExport(t *testing.T) {
	if got := mcrdram.MaxRefreshInterval(mcrdram.WiringKtoN1K, 3, 4, 64); got != 16 {
		t.Fatalf("interval = %g, want 16", got)
	}
	if got := mcrdram.MaxRefreshInterval(mcrdram.WiringKtoK, 3, 2, 64); got != 56 {
		t.Fatalf("interval = %g, want 56", got)
	}
}

func TestReproduceFig11AndRender(t *testing.T) {
	opt := mcrdram.ExperimentOptions{Insts: 50_000, Seed: 1}
	s, err := mcrdram.ReproduceFig11(opt, []string{"mummer"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mcrdram.WriteSweep(&buf, s, "exec"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mummer") {
		t.Fatal("rendered sweep must include the workload")
	}
}

func TestDefaultsExports(t *testing.T) {
	if mcrdram.ControllerDefaults().ReadQueueCap != 32 {
		t.Fatal("controller defaults must follow Table 4")
	}
	if mcrdram.CPUDefaults().ROBSize != 128 {
		t.Fatal("CPU defaults must follow Table 4")
	}
	if err := mcrdram.PowerDefaults().Validate(); err != nil {
		t.Fatal(err)
	}
	if mcrdram.AllMechanisms() != (mcrdram.Mechanisms{EarlyAccess: true, EarlyPrecharge: true, FastRefresh: true, RefreshSkipping: true}) {
		t.Fatal("AllMechanisms must enable everything")
	}
}
