// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5-6): the Table 3 timing constraints, the Fig 10 SPICE
// transients, the single-core sweeps (Figs 11-13), the multi-core sweeps
// (Figs 14-16), the mechanism ablation (Fig 17) and the EDP comparison
// (Fig 18), plus the Fig 8 wiring table. cmd/reproduce and the repository
// benchmarks are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/runplan"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options controls the fidelity and execution of the sweeps.
type Options struct {
	// Insts is the per-core instruction budget (0 selects the default,
	// 1M per core, single- and multi-core alike).
	Insts int64
	// Seed feeds every simulation; baseline and MCR runs share it.
	Seed int64
	// Jobs bounds the executor's worker pool: 0 selects GOMAXPROCS,
	// 1 forces serial execution. Results are deterministic either way.
	Jobs int
	// Progress, when non-nil, receives one instrumented event per
	// finished simulation (wall time, simulated cycles/sec, retired
	// insts/sec, pending queue). The executor serializes calls, so the
	// sink needs no locking; use runplan.LineSink for plain text.
	Progress runplan.Sink
	// Context, when non-nil, cancels in-flight simulations (Ctrl-C,
	// test timeouts); nil means context.Background().
	Context context.Context
	// MaxMixes, when positive, truncates the multi-core workload list to
	// its first MaxMixes entries (benchmarks and CI use this).
	MaxMixes int
	// KeepGoing records failures per sweep cell and keeps executing
	// instead of cancelling the plan at the first error; the joined
	// per-cell errors are returned after the surviving results.
	KeepGoing bool
	// SpecTimeout bounds each simulation's wall-clock time
	// (0 = unbounded). See runplan.Executor.
	SpecTimeout time.Duration
	// Metrics attaches a fresh observability registry to every simulation
	// (snapshots land in each result's Obs field and on progress events);
	// TraceCap, when positive, attaches a ring-buffer event tracer of
	// that capacity per run (runplan.Result.Trace). See runplan.Executor.
	Metrics  bool
	TraceCap int
	// CheckpointDir, when non-empty, gives every simulation a crash-safe
	// periodic snapshot under that directory, so a sweep rerun with the
	// same options resumes a failed (panic, SpecTimeout) or interrupted
	// simulation from its last snapshot instead of cycle zero.
	// CheckpointEvery is the snapshot interval in memory cycles
	// (0 selects runplan.DefaultCheckpointEvery). See runplan.Executor.
	CheckpointDir   string
	CheckpointEvery int64
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Insts == 0 {
		o.Insts = 1_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// execute runs a plan through the pooled executor configured by the
// options and returns results in spec order.
func (o Options) execute(plan *runplan.Plan) ([]runplan.Result, error) {
	ex := runplan.Executor{
		Jobs: o.Jobs, Sink: o.Progress,
		SpecTimeout: o.SpecTimeout, KeepGoing: o.KeepGoing,
		Metrics: o.Metrics, TraceCap: o.TraceCap,
		CheckpointDir: o.CheckpointDir, CheckpointEvery: o.CheckpointEvery,
	}
	return ex.Execute(o.Context, plan)
}

// runSweeps executes the plans as their union — one Execute, so every
// distinct configuration is simulated once however many plans reference
// it — and folds the results back into one Sweep per plan, in plan order:
// one point per spec, each reduced against its baseline. It also returns
// the union's results, in spec order, for callers that fold more.
func (o Options) runSweeps(plans ...*runplan.Plan) ([]*Sweep, []runplan.Result, error) {
	n := 0
	for _, p := range plans {
		n += len(p.Specs)
	}
	union := &runplan.Plan{Specs: make([]runplan.Spec, 0, n)}
	var names []string
	for _, p := range plans {
		union.Specs = append(union.Specs, p.Specs...)
		names = append(names, p.Name)
	}
	union.Name = strings.Join(slices.Compact(names), "+")
	results, err := o.execute(union)
	if results == nil {
		return nil, nil, err // a plan-wide failure; KeepGoing keeps the rest
	}
	sweeps := make([]*Sweep, len(plans))
	rest := results
	for i, p := range plans {
		s := &Sweep{Figure: p.Name}
		for _, r := range rest[:len(p.Specs)] {
			if r.Run == nil {
				continue // failed under KeepGoing; reported via err
			}
			s.Points = append(s.Points, SweepPoint{Workload: r.Workload, Config: r.Config, Reduction: reduce(r.Base, r.Run)})
			if r.Trace != nil {
				s.Traces = append(s.Traces, obs.TraceGroup{Label: r.Workload + " " + r.Config, Events: r.Trace.Events(), Dropped: r.Trace.Dropped()})
			}
		}
		s.averageByConfig()
		sweeps[i], rest = s, rest[len(p.Specs):]
	}
	// KeepGoing: return the partial sweeps together with the joined
	// per-cell errors so callers can render what survived.
	return sweeps, results, err
}

// baseConfig assembles a workload set's MCR-off configuration on top of
// sim.DefaultConfig: no mechanisms, the options' budget and seed, and a
// shared footprint for a multithreaded mix.
func baseConfig(o Options, multicore bool, workloads []string) sim.Config {
	cfg := sim.DefaultConfig("")
	cfg.DRAM = dram.DefaultConfig(mcr.Off())
	cfg.DRAM.Mech = mech.Toggles{}
	cfg.Workloads, cfg.InstsPerCore, cfg.Seed = workloads, o.Insts, o.Seed
	cfg.SharedFootprint = isShared(workloads)
	if multicore {
		cfg.DRAM.Geom = core.MultiCoreGeometry()
	}
	return cfg
}

// Reduction is the improvement of an MCR run over its baseline, in
// percent (positive = MCR better), for the three reported metrics.
type Reduction struct {
	ExecTime    float64
	ReadLatency float64
	EDP         float64
}

// reduce compares a run with its baseline.
func reduce(base, m *sim.Result) Reduction {
	pct := func(b, v float64) float64 {
		if b == 0 {
			return 0
		}
		return (b - v) / b * 100
	}
	return Reduction{
		ExecTime:    pct(float64(base.ExecCPUCycles), float64(m.ExecCPUCycles)),
		ReadLatency: pct(base.AvgReadLatencyNS, m.AvgReadLatencyNS),
		EDP:         pct(base.EDPNJs, m.EDPNJs),
	}
}

// mean averages a slice of reductions.
func mean(rs []Reduction) Reduction {
	var sum Reduction
	for _, r := range rs {
		sum.ExecTime += r.ExecTime
		sum.ReadLatency += r.ReadLatency
		sum.EDP += r.EDP
	}
	n := float64(len(rs))
	if n == 0 {
		return Reduction{}
	}
	return Reduction{ExecTime: sum.ExecTime / n, ReadLatency: sum.ReadLatency / n, EDP: sum.EDP / n}
}

// BaselineOf derives the MCR-off comparison configuration of a variant:
// same workloads, seed and geometry, MCR and its mechanisms disabled.
// Plans built from one variant set per workload therefore share one
// memoized baseline per workload.
func BaselineOf(variant sim.Config) sim.Config {
	base := variant
	base.DRAM.Mode = mcr.Off()
	base.DRAM.Layout = mcr.Layout{}
	base.DRAM.TL = nil
	base.DRAM.NUAT = nil
	base.DRAM.CLR = nil
	base.DRAM.Mech = mech.Toggles{}
	base.AllocRatio = 0
	base.AllocRatio4, base.AllocRatio2 = 0, 0
	return base
}

// MultiCoreMixes returns the paper's 16 quad-core workloads: 14
// multiprogrammed mixes (one workload per suite, rotated deterministically)
// plus the two multithreaded workloads run as four threads.
func MultiCoreMixes() [][]string {
	suites := trace.SuiteNames()
	var mixes [][]string
	for i := 0; i < 14; i++ {
		var mix []string
		for si, suite := range suites {
			ws := trace.BySuite(suite)
			mix = append(mix, ws[(i+si*3)%len(ws)].Name)
		}
		mixes = append(mixes, mix)
	}
	mixes = append(mixes,
		[]string{"MT-fluid", "MT-fluid", "MT-fluid", "MT-fluid"},
		[]string{"MT-canneal", "MT-canneal", "MT-canneal", "MT-canneal"},
	)
	return mixes
}

// isShared reports whether a mix is one of the two multithreaded
// workloads, run as four threads over a shared footprint.
func isShared(mix []string) bool {
	return len(mix) == 4 && (mix[0] == "MT-fluid" || mix[0] == "MT-canneal") &&
		mix[1] == mix[0] && mix[2] == mix[0] && mix[3] == mix[0]
}

// MixName labels a multi-core mix.
func MixName(i int, mix []string) string {
	if isShared(mix) {
		return mix[0]
	}
	return fmt.Sprintf("mix%02d", i+1)
}
