package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// quickCfg is a small, fast single-core configuration.
func quickCfg(workload string, mode mcr.Mode) Config {
	cfg := DefaultConfig(workload)
	cfg.DRAM = dram.DefaultConfig(mode)
	cfg.InstsPerCore = 100_000
	return cfg
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := quickCfg("tigr", mcr.Off())
	cfg.Workloads = nil
	if _, err := Run(cfg); err == nil {
		t.Fatal("no workloads must be rejected")
	}
	cfg = quickCfg("tigr", mcr.Off())
	cfg.InstsPerCore = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero budget must be rejected")
	}
	cfg = quickCfg("nosuch", mcr.Off())
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown workload must be rejected")
	}
	// Allocation ratios are checked with MCR off too, where no allocator
	// would read them.
	for _, bad := range []struct {
		name string
		set  func(*Config)
	}{
		{"AllocRatio above one", func(c *Config) { c.AllocRatio = 1.5 }},
		{"AllocRatio negative", func(c *Config) { c.AllocRatio = -0.2 }},
		{"AllocRatio NaN", func(c *Config) { c.AllocRatio = math.NaN() }},
		{"AllocRatio4 above one", func(c *Config) { c.AllocRatio4 = 7 }},
		{"AllocRatio4 NaN", func(c *Config) { c.AllocRatio4 = math.NaN() }},
		{"AllocRatio2 negative", func(c *Config) { c.AllocRatio2 = -1 }},
		{"AllocRatio2 above one", func(c *Config) { c.AllocRatio2 = 1.01 }},
	} {
		cfg = quickCfg("tigr", mcr.Off())
		bad.set(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "must be in [0, 1]") {
			t.Errorf("%s with MCR off: got %v, want a range error", bad.name, err)
		}
	}
	// The power parameters and a disabled fault config reach the results
	// and the snapshot's config encoding without any other check. An
	// unknown engine or wiring ran as the zero value, and a wiring outside
	// Fig 8's two as K-to-K.
	for _, bad := range []struct {
		name string
		set  func(*Config)
	}{
		{"Power EActNJ negative", func(c *Config) { c.Power.EActNJ, c.Power.PPowerDownMW = -20, 500 }},
		{"Power EActNJ NaN", func(c *Config) { c.Power.EActNJ = math.NaN() }},
		{"Fault WeakFraction NaN", func(c *Config) { c.Fault = &fault.Config{WeakFraction: math.NaN()} }},
		{"Engine -1", func(c *Config) { c.Engine = -1 }},
		{"Engine Stepped+1", func(c *Config) { c.Engine = Stepped + 1 }},
		{"Wiring -1", func(c *Config) { c.DRAM.Wiring = -1 }},
		{"Wiring 1<<40", func(c *Config) { c.DRAM.Wiring = 1 << 40 }},
		{"InstsPerCore -5", func(c *Config) { c.InstsPerCore = -5 }},
		{"InstsPerCore past its bound", func(c *Config) { c.InstsPerCore = maxInstsPerCore + 1 }},
		{"second workload unknown", func(c *Config) { c.Workloads = []string{"tigr", "nosuch"} }},
	} {
		cfg = quickCfg("tigr", mcr.Off())
		bad.set(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", bad.name)
		}
		if _, err := NewSim(cfg); err == nil {
			t.Errorf("%s: NewSim accepted it", bad.name)
		}
	}
	// AllocRatio fills one band; a combined layout takes AllocRatio4/2.
	cfg = quickCfg("comm2", mcr.Off())
	cfg.DRAM.Layout = combinedLayout(t)
	cfg.AllocRatio = 0.2
	if _, err := Run(cfg); !errors.Is(err, alloc.ErrMultiBand) || !strings.Contains(err.Error(), "AllocRatio4/AllocRatio2") {
		t.Fatalf("AllocRatio on a combined layout: got %v, want ErrMultiBand naming AllocRatio4/AllocRatio2", err)
	}
}

func TestBaselineRunCompletes(t *testing.T) {
	res, err := Run(quickCfg("comm1", mcr.Off()))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCPUCycles <= 0 {
		t.Fatal("execution time must be positive")
	}
	if res.IPC <= 0 || res.IPC > 2 {
		t.Fatalf("IPC %.2f outside (0, retire width]", res.IPC)
	}
	if res.ReadCount == 0 || res.AvgReadLatencyNS <= 0 {
		t.Fatal("reads must be recorded")
	}
	if res.Dev.Activates == 0 || res.Dev.Refreshes == 0 {
		t.Fatalf("device activity missing: %+v", res.Dev)
	}
	if res.MCRRequestFraction != 0 {
		t.Fatal("baseline must have no MCR requests")
	}
	if res.Energy.TotalNJ() <= 0 || res.EDPNJs <= 0 {
		t.Fatal("energy model must produce positive results")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(quickCfg("leslie", mcr.Off()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg("leslie", mcr.Off()))
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCPUCycles != b.ExecCPUCycles || a.AvgReadLatencyNS != b.AvgReadLatencyNS || a.EDPNJs != b.EDPNJs {
		t.Fatal("same seed must reproduce identical results")
	}
	c := quickCfg("leslie", mcr.Off())
	c.Seed = 99
	d, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.ExecCPUCycles == a.ExecCPUCycles {
		t.Log("warning: different seed produced the same exec time (possible but unlikely)")
	}
}

// TestMCRImprovesMemoryBoundWorkload pins the headline result: 4/4x/100%reg
// beats the baseline on the most memory-bound workload, in exec time, read
// latency and EDP.
func TestMCRImprovesMemoryBoundWorkload(t *testing.T) {
	base, err := Run(quickCfg("tigr", mcr.Off()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(quickCfg("tigr", mcrtest.Mode(4, 4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if m.ExecCPUCycles >= base.ExecCPUCycles {
		t.Fatalf("4/4x exec %d not below baseline %d", m.ExecCPUCycles, base.ExecCPUCycles)
	}
	if m.AvgReadLatencyNS >= base.AvgReadLatencyNS {
		t.Fatalf("4/4x read latency %.1f not below baseline %.1f", m.AvgReadLatencyNS, base.AvgReadLatencyNS)
	}
	if m.EDPNJs >= base.EDPNJs {
		t.Fatalf("4/4x EDP %.2f not below baseline %.2f", m.EDPNJs, base.EDPNJs)
	}
	if m.MCRRequestFraction < 0.99 {
		t.Fatalf("100%%reg must serve every read from MCRs, got %.2f", m.MCRRequestFraction)
	}
	// Execution-time reduction should be in the paper's ballpark for tigr
	// (17.2% in the paper; accept a generous band for the short trace).
	red := float64(base.ExecCPUCycles-m.ExecCPUCycles) / float64(base.ExecCPUCycles)
	if red < 0.05 || red > 0.35 {
		t.Fatalf("tigr exec reduction %.1f%% outside the plausible band", red*100)
	}
}

// Test4x4xBeats2x2x pins the mode ordering of Fig 11.
func Test4x4xBeats2x2x(t *testing.T) {
	m2, err := Run(quickCfg("mummer", mcrtest.Mode(2, 2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	m4, err := Run(quickCfg("mummer", mcrtest.Mode(4, 4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if m4.ExecCPUCycles >= m2.ExecCPUCycles {
		t.Fatalf("4/4x (%d) must beat 2/2x (%d)", m4.ExecCPUCycles, m2.ExecCPUCycles)
	}
}

// TestRegionRatioMonotone: a larger MCR region helps more (Fig 11 trend).
func TestRegionRatioMonotone(t *testing.T) {
	prev := int64(1 << 62)
	for _, reg := range []float64{0.25, 1.0} {
		cfg := quickCfg("tigr", mcrtest.Mode(4, 4, reg))
		cfg.DRAM.Mech = dram.Mechanisms{EarlyAccess: true, EarlyPrecharge: true}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExecCPUCycles >= prev {
			t.Fatalf("region %.2f exec %d not below smaller region's %d", reg, res.ExecCPUCycles, prev)
		}
		prev = res.ExecCPUCycles
	}
}

func TestProfileAllocationConcentratesRequests(t *testing.T) {
	cfg := quickCfg("comm2", mcrtest.Mode(4, 4, 0.5))
	cfg.InstsPerCore = 400_000
	cfg.AllocRatio = 0.1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Footnote 9: ~88% of comm2's requests land on MCRs at a 10% ratio.
	if res.MCRRequestFraction < 0.6 {
		t.Fatalf("comm2 with 10%% allocation served only %.1f%% of reads from MCRs",
			res.MCRRequestFraction*100)
	}
	// Without allocation, a 50%reg region catches roughly half the reads.
	cfg.AllocRatio = 0
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MCRRequestFraction >= res.MCRRequestFraction {
		t.Fatal("profile allocation must increase the MCR request fraction")
	}
}

func TestRefreshSkippingReducesRefreshes(t *testing.T) {
	full, err := Run(quickCfg("stream", mcrtest.Mode(4, 4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	skip, err := Run(quickCfg("stream", mcrtest.Mode(4, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if skip.Dev.SkippedRefreshes == 0 {
		t.Fatal("1/4x must skip refreshes")
	}
	if full.Dev.SkippedRefreshes != 0 {
		t.Fatal("4/4x must not skip refreshes")
	}
	if skip.Dev.Refreshes >= full.Dev.Refreshes {
		t.Fatal("skipping must lower the executed refresh count")
	}
}

func TestMultiCoreRunCompletes(t *testing.T) {
	cfg := quickCfg("comm2", mcrtest.Mode(4, 4, 1))
	cfg.Workloads = []string{"comm2", "leslie", "black", "mummer"}
	cfg.DRAM.Geom = core.MultiCoreGeometry()
	cfg.InstsPerCore = 60_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCPUCycles <= 0 || res.ReadCount == 0 {
		t.Fatal("multi-core run produced no work")
	}
	if res.IPC <= 0 || res.IPC > 8 {
		t.Fatalf("aggregate IPC %.2f implausible", res.IPC)
	}
}

func TestSharedFootprintMultithreaded(t *testing.T) {
	cfg := quickCfg("MT-canneal", mcr.Off())
	cfg.Workloads = []string{"MT-canneal", "MT-canneal", "MT-canneal", "MT-canneal"}
	cfg.DRAM.Geom = core.MultiCoreGeometry()
	cfg.SharedFootprint = true
	cfg.InstsPerCore = 50_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCPUCycles <= 0 {
		t.Fatal("MT run must complete")
	}
}

// TestMechanismOrdering pins Fig 17's shape on a memory-bound workload:
// EA+EP ≥ EA alone (case 2 vs case 1).
func TestMechanismOrdering(t *testing.T) {
	run := func(mech dram.Mechanisms) int64 {
		cfg := quickCfg("tigr", mcrtest.Mode(4, 4, 1))
		cfg.DRAM.Mech = mech
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecCPUCycles
	}
	eaOnly := run(dram.Mechanisms{EarlyAccess: true})
	eaEp := run(dram.Mechanisms{EarlyAccess: true, EarlyPrecharge: true})
	base, err := Run(quickCfg("tigr", mcr.Off()))
	if err != nil {
		t.Fatal(err)
	}
	if eaEp >= eaOnly {
		t.Fatalf("EA+EP (%d) must beat EA alone (%d)", eaEp, eaOnly)
	}
	if eaEp >= base.ExecCPUCycles {
		t.Fatalf("EA+EP (%d) must beat the baseline (%d)", eaEp, base.ExecCPUCycles)
	}
}

func TestPowerDownAccounting(t *testing.T) {
	cfg := quickCfg("fluid", mcr.Off()) // light workload: lots of idle time
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.BackgroundNJ <= 0 {
		t.Fatal("background energy missing")
	}
	// Priced at standby power, power-down cycles cost more: the idle
	// ranks did power down.
	cfg.Power.PPowerDownMW = cfg.Power.PStandbyMW
	noPD, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if noPD.Energy.BackgroundNJ <= res.Energy.BackgroundNJ {
		t.Fatal("no rank powered down in a light workload")
	}
}
