package mcrdram

import (
	"io"

	"repro/internal/circuit"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/runplan"
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
type Mechanisms = dram.Mechanisms

// AllMechanisms enables every latency mechanism.
func AllMechanisms() Mechanisms { return dram.AllMechanisms() }

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

// CircuitParams are the transient circuit model's physical constants.
type CircuitParams = circuit.Params

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

// RunPlan is a declarative sweep: an ordered list of RunSpec cells, each a
// labelled simulation optionally paired with a baseline.
type RunPlan = runplan.Plan

// RunSpec is one cell of a run plan.
type RunSpec = runplan.Spec

// RunExecutor runs plans on a bounded worker pool, simulating each distinct
// config of a plan once, with deterministic result ordering and context
// cancellation.
type RunExecutor = runplan.Executor

// RunResult is one finished plan cell (variant, shared baseline, stats).
type RunResult = runplan.Result

// RunEvent instruments one finished simulation of a plan execution.
type RunEvent = runplan.Event

// RunStats carries a run's wall time, simulated cycles and retired
// instructions (throughput via CyclesPerSec/InstsPerSec).
type RunStats = runplan.RunStats

// ProgressSink receives one RunEvent per finished simulation; the
// executor serializes calls, so sinks need no locking.
type ProgressSink = runplan.Sink

// ProgressLines returns a sink that writes one human-readable progress
// line per finished simulation to w.
func ProgressLines(w io.Writer) ProgressSink { return runplan.LineSink(w) }

// ProgressFunc adapts a function to the ProgressSink interface.
func ProgressFunc(f func(RunEvent)) ProgressSink { return runplan.SinkFunc(f) }

// BaselineConfigOf derives the MCR-off comparison configuration of a
// variant (same workloads, seed and geometry; MCR, its mechanisms and
// profile allocation disabled).
func BaselineConfigOf(variant Config) Config { return experiments.BaselineOf(variant) }

// Table3 returns the paper's canonical Table 3 timing constraints.
func Table3() []ModeTiming { return timing.Table3() }

// DeriveTable3 recomputes a Table 3 column from the circuit model.
func DeriveTable3(p CircuitParams, k, m int, fourGb bool) (ModeTiming, error) {
	return timing.Derive(p, k, m, fourGb)
}

// DefaultCircuit returns the calibrated circuit model.
func DefaultCircuit() CircuitParams { return circuit.Default() }

// Workloads returns the 16-entry Table 5 workload catalogue.
func Workloads() []Workload { return trace.Workloads() }

// WorkloadNames returns the 14 single-core workload names.
func WorkloadNames() []string { return trace.SingleCoreNames() }

// MaxRefreshInterval returns the worst-case refresh interval (ms) of a Kx
// MCR under a wiring method with an n-bit refresh counter (Fig 8).
func MaxRefreshInterval(w Wiring, nbits, k int, windowMs float64) float64 {
	return mcr.MaxRefreshIntervalMs(w, nbits, k, windowMs)
}

// Experiments re-exports the figure-regeneration harness options.
type ExperimentOptions = experiments.Options

// Sweep is one regenerated figure.
type Sweep = experiments.Sweep

// ReproduceFig11 regenerates the single-core MCR-ratio figure for the given
// workloads (nil = all 14).
func ReproduceFig11(opt ExperimentOptions, workloads []string) (*Sweep, error) {
	if workloads == nil {
		workloads = trace.SingleCoreNames()
	}
	return experiments.Fig11(opt, workloads)
}

// WriteSweep renders a sweep as a text table for the metric ("exec",
// "readlat" or "edp").
func WriteSweep(w io.Writer, s *Sweep, metric string) error {
	return experiments.WriteSweep(w, s, metric)
}

// IntegrityConfig configures the retention-safety checker.
type IntegrityConfig = integrity.Config

// IntegrityDefaults returns the normal-temperature retention assumptions
// (64 ms window, 20% worst-case droop).
func IntegrityDefaults() IntegrityConfig { return integrity.DefaultConfig() }

// Governor manages dynamic MCR-mode changes under memory pressure
// (paper Sec. 4.4).
type Governor = mcr.Governor

// GovernorConfig sets the governor's pressure thresholds.
type GovernorConfig = mcr.GovernorConfig

// NewGovernor builds a mode governor starting at the given K (4, 2 or 1).
func NewGovernor(cfg GovernorConfig, startK int) (*Governor, error) {
	return mcr.NewGovernor(cfg, startK)
}

// GovernorDefaults returns the default hysteresis thresholds.
func GovernorDefaults() GovernorConfig { return mcr.DefaultGovernorConfig() }

// TLDRAMConfig parameterizes the TL-DRAM-like comparison baseline. Each
// comparison backend is selected by pointing its Config.DRAM field at a
// configuration on an MCR-off system, e.g.
//
//	cfg := mcrdram.SingleCore("tigr", mcrdram.ModeOff())
//	tl := mcrdram.TLDRAMDefaults()
//	cfg.DRAM.TL = &tl
type TLDRAMConfig = dram.TLConfig

// TLDRAMDefaults returns a representative 50%-near TL-DRAM-like split.
func TLDRAMDefaults() TLDRAMConfig { return dram.DefaultTLConfig() }

// NUATConfig parameterizes the NUAT-like charge-aware comparison baseline
// (Shin et al., the paper's citation [27]).
type NUATConfig = dram.NUATConfig

// NUATDefaults returns the 8-bin, 20%-droop charge-aware setup.
func NUATDefaults() NUATConfig { return dram.DefaultNUATConfig() }

// CROWConfig parameterizes the CROW-like comparison backend: hot rows are
// dynamically copied into spare clone rows of their subarray, and later
// activations of a copied row drive both copies for reduced tRCD/tRAS.
type CROWConfig = dram.CROWConfig

// CROWDefaults returns the 8-spares-per-subarray, threshold-4 setup.
func CROWDefaults() CROWConfig { return dram.DefaultCROWConfig() }

// CLRConfig parameterizes the CLR-DRAM-like comparison backend: adjacent
// row pairs dynamically couple into a single low-latency row (halved
// capacity for the pair) and uncouple again on demand.
type CLRConfig = dram.CLRConfig

// CLRDefaults returns the threshold-4, 12.5%-coupled-fraction setup.
func CLRDefaults() CLRConfig { return dram.DefaultCLRConfig() }

// MechanismStats carries the active backend's own counters (fast
// activates, row copies, conversions, reversions); see Result.MechStats.
type MechanismStats = mech.Stats

// MechanismShootout races all five latency backends (MCR, TL-DRAM, NUAT,
// CROW, CLR-DRAM) head-to-head over the given single-core workloads
// (nil = all 14) against one shared conventional baseline per workload.
func MechanismShootout(opt ExperimentOptions, workloads []string) (*MechanismShootoutResult, error) {
	if workloads == nil {
		workloads = trace.SingleCoreNames()
	}
	return experiments.Shootout(opt, workloads)
}

// MechanismShootoutResult is the head-to-head sweep plus per-backend
// counter aggregation.
type MechanismShootoutResult = experiments.ShootoutResult

// WriteShootout renders the shootout tables.
func WriteShootout(w io.Writer, r *MechanismShootoutResult) error {
	return experiments.WriteShootout(w, r)
}

// WriteReport renders a USIMM-style run report.
func WriteReport(w io.Writer, cfg Config, res *Result) error {
	return report.Write(w, cfg, res)
}

// WriteComparison renders a baseline-vs-variant comparison block.
func WriteComparison(w io.Writer, label string, base, variant *Result) error {
	return report.Compare(w, label, base, variant)
}

// ControllerDefaults returns the paper's Table 4 controller configuration.
func ControllerDefaults() controller.Config { return controller.DefaultConfig() }

// CPUDefaults returns the paper's Table 4 core configuration.
func CPUDefaults() cpu.Config { return cpu.DefaultConfig() }

// PowerDefaults returns the DDR3 power model constants.
func PowerDefaults() power.Params { return power.Default() }
