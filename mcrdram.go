package mcrdram

import (
	"io"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/trace"
)

// Mode is an MCR-mode configuration [M/Kx/L%reg] (paper Table 1).
type Mode = mcr.Mode

// NewMode builds a validated MCR-mode: k rows per MCR, m refreshes kept per
// 64 ms window, region the fraction of rows ganged.
func NewMode(k, m int, region float64) (Mode, error) { return mcr.NewMode(k, m, region) }

// ModeOff returns the disabled mode (conventional full-capacity DRAM).
func ModeOff() Mode { return mcr.Off() }

// Mechanisms toggles Early-Access, Early-Precharge, Fast-Refresh and
// Refresh-Skipping independently (the Fig 17 ablation).
type Mechanisms = mech.Toggles

// AllMechanisms enables every latency mechanism.
func AllMechanisms() Mechanisms { return mech.AllToggles() }

// Config describes one full-system simulation (see sim.Config).
type Config = sim.Config

// Result is a finished simulation's metrics.
type Result = sim.Result

// Geometry describes the DRAM organization.
type Geometry = core.Geometry

// Workload is a synthetic workload profile (Table 5 catalogue).
type Workload = trace.Workload

// ModeTiming is one Table 3 column (tRCD/tRAS/tRFC of an M/Kx mode).
type ModeTiming = timing.ModeTiming

// Band is one region of a combined MCR layout.
type Band = mcr.Band

// Layout is a combined 2x+4x MCR layout (paper Sec. 4.4).
type Layout = mcr.Layout

// NewLayout builds a validated combined layout, e.g.
// NewLayout(Band{K: 4, M: 4, Region: 0.25}, Band{K: 2, M: 2, Region: 0.25}).
func NewLayout(bands ...Band) (Layout, error) { return mcr.NewLayout(bands...) }

// Wiring selects the refresh-counter wiring method (paper Fig 8).
type Wiring = mcr.Wiring

// Wiring methods.
const (
	WiringKtoK   = mcr.KtoK
	WiringKtoN1K = mcr.KtoN1K
)

// SingleCore returns the paper's 4 GB single-core system running one
// Table 5 workload under the given mode with all mechanisms enabled.
func SingleCore(workload string, mode Mode) Config {
	cfg := sim.DefaultConfig(workload)
	cfg.DRAM = dram.DefaultConfig(mode)
	return cfg
}

// MultiCore returns the paper's 16 GB quad-core system running the given
// four workloads (a multiprogrammed mix, or four copies of an MT workload
// with shared set true). An empty workloads slice yields a configuration
// that Run rejects with an error (rather than panicking here).
func MultiCore(workloads []string, mode Mode, shared bool) Config {
	first := ""
	if len(workloads) > 0 {
		first = workloads[0]
	}
	cfg := sim.DefaultConfig(first)
	cfg.Workloads = workloads
	cfg.DRAM = dram.DefaultConfig(mode)
	cfg.DRAM.Geom = core.MultiCoreGeometry()
	cfg.SharedFootprint = shared
	return cfg
}

// CombinedLayout returns the paper's single-core system with a combined
// 2x+4x layout and tiered profile allocation (the hottest ratio4 of rows
// into the 4x band, the next ratio2 into the 2x band).
func CombinedLayout(workload string, layout Layout, ratio4, ratio2 float64) Config {
	cfg := sim.DefaultConfig(workload)
	cfg.DRAM = dram.DefaultConfig(mcr.Off())
	cfg.DRAM.Layout = layout
	cfg.AllocRatio4, cfg.AllocRatio2 = ratio4, ratio2
	return cfg
}

// BaselineConfigOf derives the MCR-off comparison configuration of a
// variant (same workloads, seed and geometry; MCR, its mechanisms and
// profile allocation disabled).
func BaselineConfigOf(variant Config) Config { return experiments.BaselineOf(variant) }

// Table3 returns the paper's canonical Table 3 timing constraints.
func Table3() []ModeTiming { return timing.Table3() }

// Workloads returns the 18-entry Table 5 workload catalogue: the 16
// single-core workloads and the multithreaded pair.
func Workloads() []Workload { return trace.Workloads() }

// WorkloadNames returns the 16 single-core workload names.
func WorkloadNames() []string { return trace.SingleCoreNames() }

// MaxRefreshInterval returns the worst-case refresh interval (ms) of a Kx
// MCR under a wiring method with an n-bit refresh counter (Fig 8).
func MaxRefreshInterval(w Wiring, nbits, k int, windowMs float64) float64 {
	return mcr.MaxRefreshIntervalMs(w, nbits, k, windowMs)
}

// IntegrityConfig configures the retention-safety checker.
type IntegrityConfig = integrity.Config

// IntegrityDefaults returns the normal-temperature retention assumptions
// (64 ms window, 20% worst-case droop).
func IntegrityDefaults() IntegrityConfig { return integrity.DefaultConfig() }

// TLDRAMConfig parameterizes the TL-DRAM-like comparison baseline. Each
// comparison backend is selected by pointing its Config.DRAM field at a
// configuration on an MCR-off system, e.g.
//
//	cfg := mcrdram.SingleCore("tigr", mcrdram.ModeOff())
//	tl := mcrdram.TLDRAMDefaults()
//	cfg.DRAM.TL = &tl
type TLDRAMConfig = mech.TLConfig

// TLDRAMDefaults returns a representative 50%-near TL-DRAM-like split.
func TLDRAMDefaults() TLDRAMConfig { return mech.DefaultTLConfig() }

// NUATConfig parameterizes the NUAT-like charge-aware comparison baseline
// (Shin et al., the paper's citation [27]).
type NUATConfig = mech.NUATConfig

// NUATDefaults returns the 8-bin, 20%-droop charge-aware setup.
func NUATDefaults() NUATConfig { return mech.DefaultNUATConfig() }

// CLRConfig parameterizes the CLR-DRAM-like comparison backend: adjacent
// row pairs dynamically couple into a single low-latency row (halved
// capacity for the pair) and uncouple again on demand.
type CLRConfig = mech.CLRConfig

// CLRDefaults returns the threshold-4, 12.5%-coupled-fraction setup.
func CLRDefaults() CLRConfig { return mech.DefaultCLRConfig() }

// MechanismStats carries the active backend's own counters (fast
// activates, conversions, reversions); see Result.MechStats.
type MechanismStats = mech.Stats

// WriteReport renders a USIMM-style run report.
func WriteReport(w io.Writer, cfg Config, res *Result) error {
	return report.Write(w, cfg, res)
}

// WriteComparison renders a baseline-vs-variant comparison block.
func WriteComparison(w io.Writer, label string, base, variant *Result) error {
	return report.Compare(w, label, base, variant)
}
