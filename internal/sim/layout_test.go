package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mcr"
)

func combinedLayout(t *testing.T) mcr.Layout {
	t.Helper()
	l, err := mcr.NewLayout(
		mcr.Band{K: 4, M: 4, Region: 0.25},
		mcr.Band{K: 2, M: 2, Region: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestCombinedLayoutRun: the paper's Sec. 4.4 combination of 2x and 4x
// MCRs runs end to end and lands between the pure modes.
func TestCombinedLayoutRun(t *testing.T) {
	const workload = "comm2"
	const insts = 150_000

	run := func(mut func(*Config)) int64 {
		cfg := DefaultConfig(workload)
		cfg.InstsPerCore = insts
		mut(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecCPUCycles
	}

	base := run(func(c *Config) { c.DRAM = dram.DefaultConfig(mcr.Off()) })
	comb := run(func(c *Config) {
		c.DRAM = dram.DefaultConfig(mcr.Off())
		c.DRAM.Layout = combinedLayout(t)
		c.AllocRatio4 = 0.05
		c.AllocRatio2 = 0.15
	})
	if comb >= base {
		t.Fatalf("combined layout (%d) must beat the baseline (%d)", comb, base)
	}
}

// TestCombinedLayoutAllocationTiers: the hottest rows land in the 4x band,
// the next tier in the 2x band.
func TestCombinedLayoutAllocationTiers(t *testing.T) {
	cfg := DefaultConfig("comm2")
	cfg.InstsPerCore = 200_000
	cfg.DRAM = dram.DefaultConfig(mcr.Off())
	cfg.DRAM.Layout = combinedLayout(t)
	cfg.AllocRatio4 = 0.05
	cfg.AllocRatio2 = 0.10

	dev, err := dram.New(cfg.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := buildAllocation(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.DRAM.Geom
	moved := 0
	for b := 0; b < g.Ranks*g.Banks; b++ {
		a := core.Address{Rank: b / g.Banks, Bank: b % g.Banks}
		for row := 0; row < g.Rows; row++ {
			a.Row = row
			if rows.Map(a).Row != row {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("layout allocation must relocate rows")
	}
}

// TestCombinedLayoutMCRFraction: with both bands populated the MCR request
// fraction exceeds what either allocation tier alone would produce.
func TestCombinedLayoutMCRFraction(t *testing.T) {
	runFrac := func(r4, r2 float64) float64 {
		cfg := DefaultConfig("comm2")
		cfg.InstsPerCore = 150_000
		cfg.DRAM = dram.DefaultConfig(mcr.Off())
		cfg.DRAM.Layout = combinedLayout(t)
		cfg.AllocRatio4 = r4
		cfg.AllocRatio2 = r2
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MCRRequestFraction
	}
	both := runFrac(0.05, 0.15)
	only4 := runFrac(0.05, 0)
	if both <= only4 {
		t.Fatalf("adding the 2x tier must capture more requests: %.3f vs %.3f", both, only4)
	}
}
