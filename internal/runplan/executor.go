// The pooled plan executor: bounded workers, one simulation per distinct
// config, deterministic result ordering and cancellation — hardened so a
// single poisoned config (a panic inside the simulator, a hung run) fails
// its own spec with a labelled error instead of killing the sweep. Each
// simulation is attempted once: the simulator is deterministic, so a
// panic or error would only repeat.

package runplan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Result is one finished spec: the variant's result, the baseline's
// result, and their instrumentation. Both may be shared with other specs
// whose configs have the same canonical key.
type Result struct {
	Workload string
	Config   string
	// Base and Run are the memoized results of their configs, shared by
	// every reference — Run or Baseline, in any spec — with the same
	// canonical key.
	Base *sim.Result
	Run  *sim.Result
	// Stats instruments the variant run; BaseStats the baseline run it
	// references (identical across all specs sharing that simulation).
	Stats     RunStats
	BaseStats RunStats
	// Trace is the variant run's event tracer and BaseTrace the
	// baseline's, shared like the results; both are nil unless
	// Executor.TraceCap is positive.
	// Export with Trace.WriteChrome, or merge a whole sweep with
	// obs.WriteChromeGroups.
	Trace     *obs.Tracer
	BaseTrace *obs.Tracer
	// Err is set only under Executor.KeepGoing: the failure of this
	// spec's run or of its baseline (then the error says "baseline
	// failed"). Run and Base are nil when Err is non-nil.
	Err error
}

// RunFunc executes one simulation; it exists so tests can count or fake
// runs. The default is sim.RunContext.
type RunFunc func(context.Context, sim.Config) (*sim.Result, error)

// Executor runs plans on a bounded worker pool.
type Executor struct {
	// Jobs bounds the number of concurrently running simulations;
	// 0 (or negative) selects GOMAXPROCS, 1 gives serial execution.
	Jobs int
	// Sink, when non-nil, receives one Event per finished simulation
	// (one per distinct config of the plan).
	// Calls are serialized by the executor.
	Sink Sink
	// Run, when non-nil, replaces sim.RunContext (tests).
	Run RunFunc
	// SpecTimeout bounds the wall-clock time of each simulation; 0 (or
	// negative) means unbounded. A timed-out simulation fails its spec
	// with context.DeadlineExceeded.
	SpecTimeout time.Duration
	// KeepGoing records failures per spec (Result.Err) and keeps
	// executing the rest of the plan instead of cancelling everything at
	// the first error. Execute then returns the partial results together
	// with the joined per-spec errors.
	KeepGoing bool
	// Metrics attaches a fresh observability registry to every simulation
	// whose config does not already carry one: snapshots land in each
	// run's Result.Obs and on the run's Event (Event.Obs), so sinks can
	// stream per-cell counters as the sweep progresses.
	Metrics bool
	// TraceCap, when positive, attaches a fresh ring-buffer event tracer
	// of that capacity to every simulation whose config does not already
	// carry one; the tracers land on Result.Trace/BaseTrace.
	TraceCap int
	// CheckpointDir, when non-empty, gives every simulation whose config
	// does not already carry a checkpoint policy a crash-safe periodic
	// snapshot under that directory (one file per distinct config, named
	// by the first 16 hex digits of its ConfigKey). A sweep rerun with
	// the same directory then resumes a failed or interrupted simulation
	// — a panic inside the simulator, a SpecTimeout, a cancellation —
	// from its last snapshot instead of restarting from cycle zero.
	// A completed run removes its snapshot and leaves its Result beside
	// it (the same 16 digits, .result), so the rerun of a plan that did
	// not finish reuses it instead of simulating it again; a reused run
	// counts as done but emits no Event. A Result is reused only under
	// the Metrics setting that kept it; a run that carries a tracer
	// (TraceCap or its own) or a registry of its own is simulated again:
	// its Result alone would not rebuild what those saw. When every
	// simulation of the plan has succeeded, Execute removes the plan's
	// files. Kept files name the configuration, not the program:
	// after a change to the simulator that moves results, use a fresh
	// directory, or the rerun mixes the old program's results and
	// snapshots into the new one's.
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence in memory cycles;
	// 0 (or negative) selects DefaultCheckpointEvery.
	CheckpointEvery int64
}

// DefaultCheckpointEvery is the snapshot cadence used when CheckpointDir
// is set without an explicit CheckpointEvery: about a million memory
// cycles, so even long specs lose little progress while the write
// amortizes to noise (see EXPERIMENTS.md).
const DefaultCheckpointEvery = 1 << 20

// instrument applies the executor's observability and checkpoint policy to
// one run's config (a private copy — Spec configs are never mutated; key is
// its ConfigKey), returning the tracer it attached (nil when tracing is off
// or the caller supplied one).
func (e *Executor) instrument(cfg sim.Config, key string) (sim.Config, *obs.Tracer) {
	if e.Metrics && cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	var tr *obs.Tracer
	if e.TraceCap > 0 && cfg.Trace == nil {
		tr = obs.NewTracer(e.TraceCap)
		cfg.Trace = tr
	}
	if e.CheckpointDir != "" && cfg.Checkpoint == nil {
		every := e.CheckpointEvery
		if every <= 0 {
			every = DefaultCheckpointEvery
		}
		cfg.Checkpoint = &sim.CheckpointConfig{
			Path:         filepath.Join(e.CheckpointDir, key[:16]+".ckpt"),
			EveryNCycles: every,
			Resume:       true,
		}
	}
	return cfg, tr
}

// keptFormat is the version of keptResult's layout; readResult ignores a
// file of another.
const keptFormat = 1

// keptResult is the file a finished simulation leaves under CheckpointDir:
// its full ConfigKey, so a prefix collision is not taken for it, and its
// Result.
type keptResult struct {
	Format  int
	Key     string
	Metrics bool // Executor.Metrics, which ConfigKey leaves out
	Result  *sim.Result
	// The latency histogram's statistics, which the Result's JSON leaves
	// out.
	LatencyN     int64
	LatencySumNS float64
}

// keepsResult reports whether the executor keeps the Result of a run of
// cfg, as handed to it before instrument.
func (e *Executor) keepsResult(cfg *sim.Config) bool {
	return e.CheckpointDir != "" && e.TraceCap <= 0 &&
		cfg.Checkpoint == nil && cfg.Trace == nil && cfg.Metrics == nil
}

// resultPath is where the Result of the run with ConfigKey key is kept.
func (e *Executor) resultPath(key string) string {
	return filepath.Join(e.CheckpointDir, key[:16]+".result")
}

// readResult returns the kept Result of the run with ConfigKey key, or
// nil when there is none or it cannot be read: the run is then simulated.
func (e *Executor) readResult(key string) *sim.Result {
	data, err := os.ReadFile(e.resultPath(key))
	if err != nil {
		return nil
	}
	var kept keptResult
	if json.Unmarshal(data, &kept) != nil || kept.Format != keptFormat || kept.Key != key ||
		kept.Metrics != e.Metrics || kept.Result == nil {
		return nil
	}
	if h := kept.Result.Latency; h != nil {
		h.N, h.SumNS = kept.LatencyN, kept.LatencySumNS
	}
	return kept.Result
}

// writeResult keeps the Result of a finished run, through the snapshot's
// temp-file-and-rename.
func (e *Executor) writeResult(key string, res *sim.Result) error {
	return snapshot.WriteAtomic(e.resultPath(key), func(w io.Writer) error {
		kept := keptResult{Format: keptFormat, Key: key, Metrics: e.Metrics, Result: res}
		if h := res.Latency; h != nil {
			kept.LatencyN, kept.LatencySumNS = h.N, h.SumNS
		}
		return json.NewEncoder(w).Encode(kept)
	})
}

// attempt runs one simulation: panics are recovered into a PanicError (a
// dram command-legality panic on a poisoned config must fail the spec,
// not the process) and SpecTimeout bounds the run.
func (e *Executor) attempt(ctx context.Context, run RunFunc, cfg sim.Config) (res *sim.Result, err error) {
	if e.SpecTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.SpecTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return run(ctx, cfg)
}

// runSpec runs one simulation and labels its failure with the spec's
// plan cell. Plan-level cancellation is returned bare — it is not a spec
// failure.
func (e *Executor) runSpec(ctx context.Context, run RunFunc, cfg sim.Config, workload, config string, baseline bool) (*sim.Result, error) {
	res, err := e.attempt(ctx, run, cfg)
	if err == nil {
		return res, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return nil, &SpecError{Workload: workload, Config: config, Baseline: baseline, Err: err}
}

// removeFiles deletes what the plan's runs keep under CheckpointDir once
// every one of them has succeeded: a rerun then starts afresh.
func (e *Executor) removeFiles(runs []*memoRun) error {
	for _, r := range runs {
		if r.err != nil {
			return nil
		}
	}
	for _, r := range runs {
		if !r.keep {
			continue
		}
		if err := snapshot.Remove(e.resultPath(r.key)); err != nil {
			return fmt.Errorf("runplan: removing kept results: %w", err)
		}
	}
	return nil
}

// memoRun is one distinct simulation of a plan: every Run or Baseline
// reference whose config has the same canonical key shares it.
type memoRun struct {
	cfg      *sim.Config // in the plan's first referencing spec
	key      string
	kind     Kind   // KindBaseline when first referenced as a Baseline
	workload string // labels of the first spec referencing it
	config   string
	res      *sim.Result
	err      error
	stats    RunStats
	trace    *obs.Tracer
	keep     bool // the Result is kept under CheckpointDir
}

// Execute runs every spec of the plan and returns results in spec order.
// Each distinct configuration — a spec's Run or Baseline, keyed by
// ConfigKey — is simulated exactly once, however many specs reference
// it. By default the first failure cancels the remaining work and is
// returned (wrapped in a SpecError naming the cell); under KeepGoing the
// failure is recorded on every spec that references it and the rest of
// the plan still runs, with Execute returning the joined spec errors
// alongside the partial results. An external cancellation returns the
// context's error in both modes.
func (e *Executor) Execute(ctx context.Context, p *Plan) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := e.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	run := e.Run
	if run == nil {
		run = sim.RunContext
	}

	// Deduplicate every reference by canonical key, in first-reference
	// order (a spec's Baseline before its Run), so scheduling and progress
	// output under -jobs 1 are stable.
	var runs []*memoRun
	byKey := make(map[string]*memoRun)
	ref := func(cfg *sim.Config, s *Spec, kind Kind) (*memoRun, error) {
		key, err := ConfigKey(*cfg)
		if err != nil {
			return nil, err
		}
		r := byKey[key]
		if r == nil {
			r = &memoRun{cfg: cfg, key: key, kind: kind, workload: s.Workload, config: s.Config}
			byKey[key] = r
			runs = append(runs, r)
		}
		return r, nil
	}
	specRuns := make([]*memoRun, len(p.Specs))
	specBases := make([]*memoRun, len(p.Specs))
	for i := range p.Specs {
		s := &p.Specs[i]
		var err error
		if specBases[i], err = ref(&s.Baseline, s, KindBaseline); err != nil {
			return nil, err
		}
		if specRuns[i], err = ref(&s.Run, s, KindVariant); err != nil {
			return nil, err
		}
	}
	total := len(runs)
	// Runs a killed earlier execution of the plan finished are done.
	todo := make([]*memoRun, 0, len(runs))
	for _, r := range runs {
		if r.keep = e.keepsResult(r.cfg); r.keep {
			if r.res = e.readResult(r.key); r.res != nil {
				r.stats = RunStats{Wall: r.res.Wall, MemCycles: r.res.MemCycles, Retired: r.res.RetiredInsts}
				continue
			}
		}
		todo = append(todo, r)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		finished = total - len(todo)
	)
	emit := func(ev Event) {
		mu.Lock()
		finished++
		if e.Sink != nil {
			ev.Plan = p.Name
			ev.Done = finished
			ev.Total = total
			ev.Pending = total - finished
			e.Sink.Event(ev)
		}
		mu.Unlock()
	}

	jobCh := make(chan *memoRun)
	go func() {
		defer close(jobCh)
		for _, r := range todo {
			select {
			case jobCh <- r:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for r := range jobCh {
				cfg, tr := e.instrument(*r.cfg, r.key)
				start := time.Now() //mcrlint:allow determinism wall-clock throughput stats only, never results
				res, err := e.runSpec(ctx, run, cfg, r.workload, r.config, r.kind == KindBaseline)
				if err == nil && r.keep {
					if werr := e.writeResult(r.key, res); werr != nil {
						res, err = nil, &SpecError{Workload: r.workload, Config: r.config, Baseline: r.kind == KindBaseline, Err: werr}
					}
				}
				r.res, r.err, r.trace = res, err, tr
				if err != nil {
					// KeepGoing records a spec failure and moves on;
					// otherwise — and always on cancellation, which is not
					// a spec failure — the first error cancels the plan.
					if e.KeepGoing && ctx.Err() == nil {
						emit(Event{Kind: KindFailed, Workload: r.workload, Config: r.config, Err: err.Error()})
						continue
					}
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					continue
				}
				r.stats = RunStats{Wall: time.Since(start), MemCycles: res.MemCycles, Retired: res.RetiredInsts} //mcrlint:allow determinism RunStats.Wall is throughput instrumentation, never a simulated quantity
				emit(Event{Kind: r.kind, Workload: r.workload, Config: r.config, Stats: r.stats, Obs: res.Obs})
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.removeFiles(runs); err != nil {
		return nil, err
	}
	// Assemble each spec from the memo. Only KeepGoing leaves failures
	// here; they are joined in plan order, so the error is deterministic.
	results := make([]Result, len(p.Specs))
	var errs []error
	for i, s := range p.Specs {
		r, b := specRuns[i], specBases[i]
		res := Result{Workload: s.Workload, Config: s.Config}
		switch {
		case b.err != nil:
			res.Err = fmt.Errorf("runplan: spec %s · %s: baseline failed: %w", s.Workload, s.Config, b.err)
		case r.err != nil:
			res.Err = r.err
		default:
			res.Run, res.Stats, res.Trace = r.res, r.stats, r.trace
			res.Base, res.BaseStats, res.BaseTrace = b.res, b.stats, b.trace
		}
		if res.Err != nil {
			errs = append(errs, res.Err)
		}
		results[i] = res
	}
	return results, errors.Join(errs...)
}
