package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/mech"
	"repro/internal/sim"
)

func runQuick(t *testing.T, mode mcr.Mode, check bool) (sim.Config, *sim.Result) {
	t.Helper()
	cfg := sim.DefaultConfig("ferret")
	cfg.DRAM = dram.DefaultConfig(mode)
	cfg.InstsPerCore = 60_000
	if check {
		ic := integrity.DefaultConfig()
		cfg.Integrity = &ic
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res
}

func TestWriteReportSections(t *testing.T) {
	cfg, res := runQuick(t, mcrtest.Mode(4, 4, 1), true)
	var buf bytes.Buffer
	if err := Write(&buf, cfg, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"mode [4/4x/100%reg]",
		"-- performance --",
		"-- cores --",
		"ferret",
		"-- memory system --",
		"row buffer",
		"-- energy --",
		"EDP",
		"-- integrity --",
		"retention-safe: yes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestWriteReportCLRConversions: a CLR run reports its conversions and
// their overhead on one line, and no row copies.
func TestWriteReportCLRConversions(t *testing.T) {
	cfg := sim.DefaultConfig("ferret")
	cfg.DRAM = dram.DefaultConfig(mcr.Off())
	clr := mech.DefaultCLRConfig()
	cfg.DRAM.CLR = &clr
	cfg.InstsPerCore = 60_000
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := res.MechStats
	if ms == nil || ms.Conversions == 0 || ms.CopyCycles == 0 {
		t.Fatalf("the CLR run converted nothing: %+v", ms)
	}
	var buf bytes.Buffer
	if err := Write(&buf, cfg, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := fmt.Sprintf("row conversions    : %d (%d cycles of conversion overhead)\n", ms.Conversions, ms.CopyCycles)
	if !strings.Contains(out, want) {
		t.Errorf("report missing %q:\n%s", want, out)
	}
	if strings.Contains(out, "copies") || strings.Contains(out, "copy overhead") {
		t.Errorf("a CLR report must not mention row copies:\n%s", out)
	}
}

func TestWriteReportBaseline(t *testing.T) {
	cfg, res := runQuick(t, mcr.Off(), false)
	var buf bytes.Buffer
	if err := Write(&buf, cfg, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "conventional DRAM") {
		t.Fatal("baseline must be labeled conventional")
	}
	if strings.Contains(out, "-- integrity --") {
		t.Fatal("integrity section must be absent when the checker is off")
	}
}

func TestCompareBlock(t *testing.T) {
	_, base := runQuick(t, mcr.Off(), false)
	_, variant := runQuick(t, mcrtest.Mode(4, 4, 1), false)
	var buf bytes.Buffer
	if err := Compare(&buf, "mode [4/4x/100%reg]", base, variant); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"exec time reduction", "EDP reduction", "vs baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q", want)
		}
	}
}

func TestWriteReportResilienceSection(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.DRAM = dram.DefaultConfig(mcrtest.Mode(4, 4, 1))
	cfg.InstsPerCore = 150_000
	cfg.Fault = &fault.Config{Seed: 3, WeakFraction: 0.05, TailMinFrac: 0.0005, TailMaxFrac: 0.005}
	cfg.Resilience = &sim.ResilienceConfig{DowngradeAfter: 2, Quarantine: true}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, cfg, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"-- resilience --",
		"ECC events",
		"quarantined rows",
		"mode downgrades",
		"first error / MTBF",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "none observed") {
		t.Error("seeded faults should produce observed errors in the report")
	}

	// Without the policy the section is absent.
	cfg2, res2 := runQuick(t, mcr.Off(), false)
	buf.Reset()
	if err := Write(&buf, cfg2, res2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "-- resilience --") {
		t.Error("resilience section must be absent when the policy is off")
	}
}

func TestWriteReportCombinedLayout(t *testing.T) {
	layout, err := mcr.NewLayout(
		mcr.Band{K: 4, M: 4, Region: 0.25},
		mcr.Band{K: 2, M: 2, Region: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig("comm2")
	cfg.DRAM = dram.DefaultConfig(mcr.Off())
	cfg.DRAM.Layout = layout
	cfg.InstsPerCore = 50_000
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, cfg, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "layout [4/4x/25%+2/2x/25%]") {
		t.Fatal("combined layout must be named in the report")
	}
}
