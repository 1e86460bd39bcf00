package bench

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/runplan"
	"repro/internal/sim"
)

// Result is the outcome of one pass over one workload.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Correct is false when any repetition errored, any digest differed
	// from the expected one, or (traced pass) the step loop failed its
	// fidelity gate.
	Correct bool `json:"correct"`
	// Attempted counts checked repetitions (warm-up included), Failed the
	// ones that errored or whose digest was wrong.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Samples is the number of timed repetitions behind each timing.
	Samples int              `json:"samples"`
	Metrics map[string]Value `json:"metrics"`
	// Notes describe failures, for stderr.
	Notes []string `json:"notes,omitempty"`
}

// rep is one measured repetition.
type rep struct {
	wall    float64 // seconds
	allocKB float64
	rssMiB  float64 // resident-set high-water mark of this repetition
	digest  string
	insts   int64   // retired simulated instructions
	ipc     float64 // simulated
}

// setup_s is the median over setupBatches batches of the mean sim.NewSim
// time within a batch of setupBatch calls run back to back: a NewSim is
// tens of microseconds and allocates, so single samples are at the mercy
// of where a collection lands, while a batch carries its fair share.
const (
	setupBatches = 25
	setupBatch   = 200
)

// RunEndToEnd measures a workload with tracing off: one warm-up, then
// timed repetitions back to back until o.Seconds have passed.
func RunEndToEnd(ctx context.Context, w Workload, o Options) (*Result, error) {
	o, err := o.prepared()
	if err != nil {
		return nil, err
	}
	run := func(reference bool) (rep, error) {
		if w.Sweep {
			return sweepRep(ctx, w, o, reference)
		}
		return singleRep(ctx, w, o, reference)
	}

	// A repetition that errors ends the pass: the workloads are chosen so
	// that none does. A repetition whose digest differs from the warm-up's
	// is counted as failed.
	warm, err := run(false)
	if err != nil {
		return nil, err
	}
	res := &Result{Workload: w.Name, Seed: o.Seed, Attempted: 1}
	setups, err := timeSetups(w, o)
	if err != nil {
		return nil, err
	}
	var reps []rep
	start := time.Now()
	for len(reps) < o.MinReps || time.Since(start).Seconds() < o.Seconds {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		r, err := run(false)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if r.digest != warm.digest {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("repetition %d: digest %s differs from the warm-up's %s", len(reps)+1, r.digest, warm.digest))
		}
		reps = append(reps, r)
	}

	// The expected digest: the committed golden where one applies,
	// otherwise an independent reference run (Stepped engine; the sweep:
	// serial pool).
	expect, ok, err := golden(w, o)
	if err != nil {
		return nil, err
	}
	if !ok {
		ref, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("bench: %s reference run: %w", w.Name, err)
		}
		expect = ref.digest
	}
	if warm.digest != expect {
		// Every repetition that matched the warm-up is wrong too.
		res.Failed = res.Attempted
		res.Notes = append(res.Notes, fmt.Sprintf("digest %s, expected %s", warm.digest, expect))
	}
	res.Correct = res.Failed == 0
	res.Samples = len(reps)

	walls := make([]float64, len(reps))
	allocs := make([]float64, len(reps))
	peaks := make([]float64, len(reps))
	for i, r := range reps {
		walls[i], allocs[i], peaks[i] = r.wall, r.allocKB, r.rssMiB
	}
	m := newMetrics(EndToEnd)
	p50 := median(walls)
	m.set("wall_s_p50", p50)
	m.set("wall_s_p75", quantile(walls, 0.75))
	m.set("sim_mips", float64(reps[0].insts)/p50/1e6)
	m.set("setup_s", median(setups))
	m.set("alloc_kb_per_run", median(allocs))
	m.set("peak_rss_mb", median(peaks))
	m.set("sim_ipc", reps[0].ipc)
	res.Metrics, err = m.done()
	return res, err
}

// measured runs f as one repetition's measured region: from a collected
// heap handed back to the OS and a reset resident-set high-water mark, so
// that no repetition pays for — or hides behind — its predecessors'
// memory. It returns the TotalAlloc delta and the high-water mark f
// reached.
func measured(f func() error) (allocKB, rssMiB float64, err error) {
	var m0, m1 runtime.MemStats
	debug.FreeOSMemory()
	// Writing 5 resets VmHWM. Where the kernel refuses, the mark stays
	// the process's running maximum and peak_rss_mb degrades to that.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	runtime.ReadMemStats(&m0)
	err = f()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, 0, err
	}
	rssMiB, err = peakRSSMiB()
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024, rssMiB, err
}

// runConfig builds the configuration of one single-run repetition,
// guard-rails included.
func runConfig(w Workload, o Options) (sim.Config, error) {
	cfg, err := w.Config(o.Seed, w.insts(o, false))
	if err != nil || !w.Guarded {
		return cfg, err
	}
	return guard(cfg, filepath.Join(o.OutDir, w.Name+".ckpt")), nil
}

// singleRep is one repetition of a single-run workload: sim.NewSim, then
// Sim.Run timed as wall. reference selects the Stepped engine.
func singleRep(ctx context.Context, w Workload, o Options, reference bool) (rep, error) {
	var r rep
	var res *sim.Result
	var err error
	r.allocKB, r.rssMiB, err = measured(func() error {
		cfg, err := runConfig(w, o)
		if err != nil {
			return err
		}
		if reference {
			cfg.Engine = sim.Stepped
		}
		s, err := sim.NewSim(cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err = s.Run(ctx)
		r.wall = time.Since(t0).Seconds()
		return err
	})
	if err != nil {
		return r, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	r.insts, r.ipc = res.RetiredInsts, res.IPC
	r.digest, err = DigestResult(res)
	return r, err
}

// sweepTotals sums the per-run statistics a sweep's sink reports.
type sweepTotals struct {
	runs, baselines   int
	retired, memCycle int64
	busy              time.Duration // Σ RunStats.Wall
}

func (t *sweepTotals) Event(e runplan.Event) {
	t.runs++
	if e.Kind == runplan.KindBaseline {
		t.baselines++
	}
	t.retired += e.Stats.Retired
	t.memCycle += e.Stats.MemCycles
	t.busy += e.Stats.Wall
}

// runSweep is one experiments.Fig11 call over the workload's traces.
func runSweep(ctx context.Context, w Workload, o Options, insts int64, jobs int) (*experiments.Sweep, *sweepTotals, time.Duration, error) {
	tot := &sweepTotals{}
	opts := experiments.Options{Insts: insts, Seed: o.Seed, Jobs: jobs, Progress: tot, Context: ctx}
	t0 := time.Now()
	s, err := experiments.Fig11(opts, w.sweepNames(o))
	return s, tot, time.Since(t0), err
}

// sweepRep is one repetition of the sweep workload. reference runs the
// pool serially: the digest must not depend on the pool width.
func sweepRep(ctx context.Context, w Workload, o Options, reference bool) (rep, error) {
	jobs := poolJobs()
	if reference {
		jobs = 1
	}
	var r rep
	var s *experiments.Sweep
	var tot *sweepTotals
	var err error
	r.allocKB, r.rssMiB, err = measured(func() error {
		var wall time.Duration
		s, tot, wall, err = runSweep(ctx, w, o, w.insts(o, false), jobs)
		r.wall = wall.Seconds()
		return err
	})
	if err != nil {
		return r, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	names := w.sweepNames(o)
	if want := len(names) * 6; len(s.Points) != want {
		return r, fmt.Errorf("bench: %s: %d sweep points, want %d", w.Name, len(s.Points), want)
	}
	r.insts = tot.retired
	r.ipc = ratio(float64(tot.retired), 4*float64(tot.memCycle))
	r.digest, err = DigestSweep(s)
	return r, err
}

// timeSetups times sim.NewSim on the workload's configuration and returns
// the per-call mean of each batch. Building the configuration — the
// guarded workload's 3.6 MB tracer ring above all — is left out: it is
// one large allocation whose cost is the collector's mood, and it is
// counted where it is steady, in alloc_kb_per_run and peak_rss_mb. For
// the sweep it is the set-up of one representative cell — what the sweep
// pays 112 times inside its wall.
func timeSetups(w Workload, o Options) ([]float64, error) {
	out := make([]float64, 0, setupBatches)
	for i := 0; i < setupBatches; i++ {
		cfg, err := runConfig(w, o)
		if err != nil {
			return nil, err
		}
		// Every batch starts from a collected heap, so that where the
		// collector stands does not carry over from batch to batch.
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < setupBatch; j++ {
			if _, err := sim.NewSim(cfg); err != nil {
				return nil, fmt.Errorf("bench: %s set-up: %w", w.Name, err)
			}
		}
		out = append(out, time.Since(t0).Seconds()/setupBatch)
	}
	return out, nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: VmHWM not found in /proc/self/status")
}
