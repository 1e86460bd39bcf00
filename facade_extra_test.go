package mcrdram_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	mcrdram "repro"
)

func TestWithIntegrityOption(t *testing.T) {
	mode, _ := mcrdram.NewMode(4, 4, 1)
	cfg := mcrdram.SingleCore("stream", mode)
	cfg.InstsPerCore = 60_000
	ic := mcrdram.IntegrityDefaults()
	cfg.Integrity = &ic
	res, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Integrity == nil {
		t.Fatal("checker was attached; report must be non-nil")
	}
	if len(res.Integrity) != 0 {
		t.Fatalf("schedule must be retention-safe: %v", res.Integrity[0])
	}
}

func TestTLDRAMFacade(t *testing.T) {
	cfg := mcrdram.SingleCore("tigr", mcrdram.ModeOff())
	tl := mcrdram.TLDRAMDefaults()
	cfg.DRAM.TL = &tl
	cfg.InstsPerCore = 60_000
	res, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := mcrdram.SingleCore("tigr", mcrdram.ModeOff())
	base.InstsPerCore = 60_000
	bres, err := mcrdram.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCPUCycles >= bres.ExecCPUCycles {
		t.Fatalf("TL-DRAM-like (%d) must beat the baseline (%d)", res.ExecCPUCycles, bres.ExecCPUCycles)
	}
}

func TestWriteReportFacade(t *testing.T) {
	mode, _ := mcrdram.NewMode(2, 2, 1)
	cfg := mcrdram.SingleCore("black", mode)
	cfg.InstsPerCore = 40_000
	res, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mcrdram.WriteReport(&buf, cfg, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mode [2/2x/100%reg]") {
		t.Fatal("report missing the mode")
	}
	base := mcrdram.SingleCore("black", mcrdram.ModeOff())
	base.InstsPerCore = 40_000
	bres, err := mcrdram.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := mcrdram.WriteComparison(&buf, "2/2x", bres, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "exec time reduction") {
		t.Fatal("comparison missing the headline")
	}
}

func TestCombinedLayoutFacade(t *testing.T) {
	layout, err := mcrdram.NewLayout(
		mcrdram.Band{K: 4, M: 4, Region: 0.25},
		mcrdram.Band{K: 2, M: 2, Region: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mcrdram.CombinedLayout("comm2", layout, 0.05, 0.15)
	cfg.InstsPerCore = 60_000
	res, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MCRRequestFraction <= 0 {
		t.Fatal("combined layout must serve requests from MCRs")
	}
}

func TestNUATFacade(t *testing.T) {
	cfg := mcrdram.SingleCore("tigr", mcrdram.ModeOff())
	n := mcrdram.NUATDefaults()
	cfg.DRAM.NUAT = &n
	cfg.InstsPerCore = 60_000
	res, err := mcrdram.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadCount == 0 {
		t.Fatal("NUAT-like run produced no reads")
	}
	if res.MCRRequestFraction != 0 {
		t.Fatal("NUAT devices have no MCRs")
	}
}

func TestRunContextCancel(t *testing.T) {
	mode, _ := mcrdram.NewMode(2, 2, 1)
	cfg := mcrdram.SingleCore("stream", mode)
	cfg.InstsPerCore = 50_000_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mcrdram.Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMechanismBackendsFromConfig: every latency backend is selected by
// its Config.DRAM field alone, from the facade's *Defaults accessors, and
// the run reports the backend it ran.
func TestMechanismBackendsFromConfig(t *testing.T) {
	mode, _ := mcrdram.NewMode(4, 4, 1)
	tl, n, cl := mcrdram.TLDRAMDefaults(), mcrdram.NUATDefaults(), mcrdram.CLRDefaults()
	for _, c := range []struct {
		name string
		mode mcrdram.Mode
		set  func(*mcrdram.Config)
	}{
		{"mcr", mode, func(*mcrdram.Config) {}},
		{"tldram", mcrdram.ModeOff(), func(c *mcrdram.Config) { c.DRAM.TL = &tl }},
		{"nuat", mcrdram.ModeOff(), func(c *mcrdram.Config) { c.DRAM.NUAT = &n }},
		{"clr", mcrdram.ModeOff(), func(c *mcrdram.Config) { c.DRAM.CLR = &cl }},
	} {
		cfg := mcrdram.SingleCore("tigr", c.mode)
		cfg.InstsPerCore = 40_000
		c.set(&cfg)
		res, err := mcrdram.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Mechanism != c.name {
			t.Errorf("%s config ran backend %q", c.name, res.Mechanism)
		}
	}
}
