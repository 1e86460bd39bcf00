// Package bench is the repository's benchmark harness: six workloads run
// closed-loop on one goroutine, end-to-end metrics measured with tracing
// off, and a separate traced pass that drives the stepped memory-cycle
// body from outside (steploop.go) plus micro-drivers on each layer's
// exported functions (layers.go). cmd/mcrbench is the driver; README.md
// records why each workload exists and which layer should move which
// end-to-end metric.
//
// Everything here measures the simulator through its exported seams —
// nothing under internal/ is modified.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Workload is one benchmark input. Budgets are sized so that at least 41
// repetitions fit into the 12 s measuring window BENCHMARK.json declares
// on the 2-core reference box (the sweep, at ~0.75 s a repetition, gets
// about 15).
type Workload struct {
	Name string
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why string
	// Names are the trace workloads, one per core (the sweep: the Fig 11
	// workload list).
	Names []string
	// Insts is the per-core instruction budget of an end-to-end
	// repetition; TraceInsts the budget of the traced pass (smaller where
	// the stepped reference would otherwise run for seconds).
	Insts, TraceInsts int64
	// MCR selects mode [4/4x/100%reg]; off otherwise.
	MCR bool
	// Quad selects the multi-core geometry.
	Quad bool
	// Guarded attaches obs, integrity, fault injection, the resilience
	// policy and periodic checkpoints.
	Guarded bool
	// Sweep runs experiments.Fig11 over Names instead of a single Sim.
	Sweep bool
	// SampleEvery is the traced step loop's sampling period.
	SampleEvery int64
}

// Workloads returns the six workloads in BENCHMARK.json order.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "idle_1c", Names: []string{"idle"}, Insts: 200_000_000, TraceInsts: 20_000_000, SampleEvery: SampleEveryIdle,
			Why: "0.05 MPKI, ~99% of cycles skipped: skip horizon, FastForward and ReplaySkipped do all the work; scheduler, dram and mech almost none",
		},
		{
			Name: "membound_1c", Names: []string{"tigr"}, Insts: 1_000_000, TraceInsts: 1_000_000, MCR: true, SampleEvery: SampleEvery,
			Why: "38 MPKI, 18% row hits, mode [4/4x]: controller Tick and NextEventAt queue walks, dram Earliest*/issue and mech RowParams dominate; the horizon is overhead",
		},
		{
			Name: "writedrain_1c", Names: []string{"stream"}, Insts: 2_000_000, TraceInsts: 2_000_000, SampleEvery: SampleEvery,
			Why: "37% writes, 74% row hits, mode off: watermark write drain and the row-hit FR-FCFS path, mech fast path; shows a read-path win that costs the drain path",
		},
		{
			Name: "quad_mix", Names: []string{"comm1", "leslie", "stream", "tigr"}, Insts: 200_000, TraceInsts: 200_000, MCR: true, Quad: true, SampleEvery: SampleEvery,
			Why: "4 cores on the multi-core geometry, saturated queues: 16 cpu.Cycle calls and 4 SkipBounds per memory cycle, deepest scheduler walks",
		},
		{
			Name: "guarded_1c", Names: []string{"tigr"}, Insts: 500_000, TraceInsts: 500_000, MCR: true, Guarded: true, SampleEvery: SampleEvery,
			Why: "membound_1c plus obs registry and tracer, integrity, fault injection, resilience poll and checkpoints: the only workload where those layers run",
		},
		{
			Name: "sweep_fig11", Names: trace.SingleCoreNames(), Insts: 100_000, TraceInsts: 1_000_000, Sweep: true, SampleEvery: SampleEvery,
			Why: "experiments.Fig11 over all 16 single-core workloads, 112 runs on a 2-worker pool: runplan pool, baseline memoisation, 112 set-ups, reduce",
		},
	}
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Options sizes one harness invocation.
type Options struct {
	// Seed feeds every generated input.
	Seed int64
	// Seconds is how long the end-to-end pass keeps repeating.
	Seconds float64
	// MinReps is the least number of timed repetitions (default 5).
	MinReps int
	// Insts, when positive, overrides every instruction budget (tests use
	// 20000). Goldens only cover the default budgets, so an override
	// falls back to the event-driven == Stepped digest check.
	Insts int64
	// SweepNames, when non-empty, replaces the sweep's workload list
	// (tests keep it short).
	SweepNames []string
	// MicroIters is the iteration count of each micro-driver (default
	// 200000).
	MicroIters int
	// OutDir receives trace files and the guarded workload's checkpoints.
	OutDir string
}

// prepared fills the defaults in and creates the output directory.
func (o Options) prepared() (Options, error) {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MinReps <= 0 {
		o.MinReps = 5
	}
	if o.MicroIters <= 0 {
		o.MicroIters = 200_000
	}
	if o.OutDir == "" {
		o.OutDir = filepath.Join("bench", "out")
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return o, fmt.Errorf("bench: creating output directory: %w", err)
	}
	return o, nil
}

// poolJobs is the sweep's worker count: two, or one on a single-CPU box.
func poolJobs() int {
	if runtime.GOMAXPROCS(0) < 2 {
		return 1
	}
	return 2
}

// insts returns the budget in force for a pass.
func (w Workload) insts(o Options, traced bool) int64 {
	if o.Insts > 0 {
		return o.Insts
	}
	if traced {
		return w.TraceInsts
	}
	return w.Insts
}

// sweepNames returns the Fig 11 workload list of a pass. Single-run
// workloads sweep over their own trace names, so the runplan rows exist
// (at small scale) on every workload.
func (w Workload) sweepNames(o Options) []string {
	if w.Sweep && len(o.SweepNames) > 0 {
		return o.SweepNames
	}
	seen := map[string]bool{}
	var names []string
	for _, n := range w.Names {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	return names
}

// Config builds the bare single-run configuration (no guard-rails). For
// the sweep it is one representative cell — the first workload at
// [4/4x] — which the traced pass uses for the step loop and the engine
// comparison.
func (w Workload) Config(seed, insts int64) (sim.Config, error) {
	names := w.Names
	mcrOn := w.MCR
	if w.Sweep {
		names, mcrOn = names[:1], true
	}
	cfg := sim.DefaultConfig(names[0])
	cfg.Workloads = names
	cfg.InstsPerCore = insts
	cfg.Seed = seed
	if w.Quad {
		cfg.DRAM.Geom = core.MultiCoreGeometry()
	}
	if mcrOn {
		mode, err := mcr.NewMode(4, 4, 1.0)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.DRAM.Mode = mode
	}
	return cfg, nil
}

// guardFaults is the injected fault population of the guarded runs.
func guardFaults() *fault.Config {
	return &fault.Config{WeakFraction: 1e-3, TailMinFrac: 5e-4, TailMaxFrac: 5e-3}
}

// checkpointEvery is the guarded runs' snapshot cadence in memory cycles.
const checkpointEvery = 65536

// guard attaches every guard-rail to cfg: a fresh obs registry and
// tracer, integrity with the fault population, the resilience policy, and
// a checkpoint every checkpointEvery cycles at path.
func guard(cfg sim.Config, path string) sim.Config {
	cfg.Metrics, cfg.Trace = obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCap)
	cfg.Fault = guardFaults()
	cfg.Resilience = &sim.ResilienceConfig{DowngradeAfter: 4, Quarantine: true}
	cfg.Checkpoint = &sim.CheckpointConfig{Path: path, EveryNCycles: checkpointEvery}
	return cfg
}
