package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/alloc"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Repetition counts of the traced pass. Every timing in it is the median
// of that many runs; the pass is a separate process from the end-to-end
// samples, so none of this work sits beside them.
const (
	engineReps   = 5 // event-driven, Stepped and bare-loop runs, interleaved
	loopReps     = 3 // step-loop runs per attachment
	overheadReps = 3 // runs with one guard-rail attached, and as many without
)

// paperFig11Pct is the paper's Fig 11 average execution-time reduction
// at [4/4x] with every row an MCR row.
const paperFig11Pct = 7.9

// fig11Headline is the sweep label paperFig11Pct refers to.
const fig11Headline = "[4/4x] ratio 1.00"

// sink keeps micro-driver results alive so the compiler cannot drop the
// calls being timed.
var sink int64

// RunTraced is the per-layer pass over one workload: the step loop on the
// workload's bare configuration (bare, with obs, with integrity), the
// engine comparison, one run per guard-rail, the micro-drivers and a
// Fig 11 sweep over the workload's traces.
func RunTraced(ctx context.Context, w Workload, o Options) (*Result, error) {
	o, err := o.prepared()
	if err != nil {
		return nil, err
	}
	insts := w.insts(o, true)
	cfg, err := w.Config(o.Seed, insts)
	if err != nil {
		return nil, err
	}
	res := &Result{Workload: w.Name, Seed: o.Seed}
	m := newMetrics(PerLayer)
	fail := func(format string, args ...any) {
		res.Failed++
		res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
	}

	// Engines: event-driven, the Stepped reference and the bare step loop,
	// interleaved so that drift of the host hits all three alike.
	stepped := cfg
	stepped.Engine = sim.Stepped
	var evWalls, stWalls, loopWalls []float64
	var ev, st *sim.Result
	var bare loopSet
	for i := 0; i < engineReps; i++ {
		var wall float64
		if ev, wall, err = runOnce(ctx, cfg); err != nil {
			return nil, err
		}
		evWalls = append(evWalls, wall)
		if st, wall, err = runOnce(ctx, stepped); err != nil {
			return nil, err
		}
		stWalls = append(stWalls, wall)
		lr, err := runLoop(cfg, Attach{}, w.SampleEvery, st.MemCycles)
		if err != nil {
			return nil, err
		}
		bare = append(bare, lr)
		loopWalls = append(loopWalls, lr.Wall.Seconds())
	}
	res.Attempted++
	evDigest, err := DigestResult(ev)
	if err != nil {
		return nil, err
	}
	stDigest, err := DigestResult(st)
	if err != nil {
		return nil, err
	}
	if evDigest != stDigest {
		fail("event-driven digest %s differs from Stepped %s", evDigest, stDigest)
	}
	evNS, stNS := median(evWalls)*1e9, median(stWalls)*1e9

	// One run with the registry and tracer attached gives the engine's
	// step/skip split (counts, exact) and the obs rows.
	withObs := func() sim.Config {
		c := cfg
		c.Metrics, c.Trace = obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCap)
		return c
	}
	bareCfg := func() sim.Config { return cfg }
	obsCfg := withObs()
	obsRes, _, err := runOnce(ctx, obsCfg)
	if err != nil {
		return nil, err
	}
	active := float64(obsRes.Obs.EngineSteppedCycles)
	t0 := time.Now()
	_ = obsCfg.Metrics.Snapshot()
	m.set("obs.snapshot_ms", ms(time.Since(t0)))
	m.set("obs.events_emitted", float64(obsCfg.Trace.Total()))
	m.set("obs.events_dropped", float64(obsCfg.Trace.Dropped()))
	if err := overheadRow(ctx, m, "obs.run_overhead_ratio", bareCfg, withObs); err != nil {
		return nil, err
	}

	m.set("sim.mem_cycles", float64(ev.MemCycles))
	m.set("sim.active_steps", active)
	m.set("sim.skip_ratio", obsRes.Obs.SkipRatio())
	m.set("sim.ns_per_mem_cycle", ratio(evNS, float64(ev.MemCycles)))
	m.set("sim.ns_per_active_step", ratio(evNS, active))
	m.set("sim.ns_per_read", ratio(evNS, float64(ev.ReadCount)))
	m.set("sim.stepped_ns_per_mem_cycle", ratio(stNS, float64(st.MemCycles)))
	m.set("sim.engine_ratio", pairedRatio(evWalls, stWalls))

	// Integrity alone, checkpoints alone, then every guard-rail together
	// for the counts.
	icfg := integrity.DefaultConfig()
	err = overheadRow(ctx, m, "integrity.run_overhead_ratio", bareCfg, func() sim.Config {
		c := cfg
		c.Integrity = &icfg
		return c
	})
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(o.OutDir, w.Name+".trace.ckpt")
	err = overheadRow(ctx, m, "snapshot.run_overhead_ratio", bareCfg, func() sim.Config {
		c := cfg
		c.Checkpoint = &sim.CheckpointConfig{Path: ckpt, EveryNCycles: checkpointEvery}
		return c
	})
	if err != nil {
		return nil, err
	}
	gcfg := guard(cfg, ckpt)
	var writes int
	var firstSnapshot []byte
	gcfg.Checkpoint.OnWrite = func(int64) {
		writes++
		if firstSnapshot == nil {
			// A failed read leaves snapshotRows its fresh-simulation fallback.
			firstSnapshot, _ = os.ReadFile(ckpt)
		}
	}
	gres, _, err := runOnce(ctx, gcfg)
	if err != nil {
		return nil, err
	}
	m.set("integrity.violations", float64(len(gres.Integrity)))
	m.set("fault.ecc_events", float64(gres.Resilience.ECCEvents))
	m.set("fault.quarantined_rows", float64(gres.Resilience.QuarantinedRows))
	m.set("snapshot.writes", float64(writes))
	if err := snapshotRows(m, gcfg, firstSnapshot, ckpt); err != nil {
		return nil, err
	}

	// The step loop again with each attachment; the Tick deltas against
	// the bare loop are the attachments' self cost. Every loop run must
	// pass the fidelity gate.
	sets := []struct {
		name string
		at   Attach
		runs loopSet
	}{{"bare", Attach{}, bare}, {"obs", Attach{Obs: true}, nil}, {"integrity", Attach{Integrity: true}, nil}}
	fidelity := 1.0
	for i := range sets {
		v := &sets[i]
		for len(v.runs) < loopReps {
			lr, err := runLoop(cfg, v.at, w.SampleEvery, st.MemCycles)
			if err != nil {
				return nil, err
			}
			v.runs = append(v.runs, lr)
		}
		for _, lr := range v.runs {
			res.Attempted++
			if err := lr.Fidelity(st); err != nil {
				fidelity = 0
				fail("%s loop: %v", v.name, err)
			}
		}
		path := filepath.Join(o.OutDir, fmt.Sprintf("trace_%s_%s.json", w.Name, v.name))
		if v.name == "bare" {
			path = filepath.Join(o.OutDir, fmt.Sprintf("trace_%s.json", w.Name))
		}
		if err := v.runs[0].WriteTrace(path, w.Name, v.name); err != nil {
			return nil, err
		}
	}
	tick := func(r *LoopResult) float64 { return r.Stats[spTick].mean() }
	m.set("bench.loop_fidelity", fidelity)
	m.set("bench.trace_overhead_ratio", pairedRatio(loopWalls, stWalls))
	m.set("obs.tick_delta_ns", sets[1].runs.med(tick)-bare.med(tick))
	m.set("integrity.tick_delta_ns", sets[2].runs.med(tick)-bare.med(tick))

	loopRows(m, bare, ratio(evNS, active))
	countRows(m, ev)

	// Micro-drivers on the layers the loop cannot bracket from outside.
	cmdNS, queryNS, err := dramMicro(cfg.DRAM, o.MicroIters)
	if err != nil {
		return nil, err
	}
	m.set("dram.cmd_ns", cmdNS)
	m.set("dram.earliest_query_ns", queryNS)
	ds := ev.Dev
	cmds := ds.Activates + ds.Reads + ds.Writes + ds.Precharges + ds.Refreshes
	m.set("dram.est_share", float64(cmds)*cmdNS/evNS)
	mode44, err := mcr.NewMode(4, 4, 1.0)
	if err != nil {
		return nil, err
	}
	for _, mc := range []struct {
		suffix string
		mode   mcr.Mode
	}{{"", mode44}, {"_off", mcr.Off()}} {
		rowNS, actNS, err := mechMicro(dram.DefaultConfig(mc.mode), o.MicroIters)
		if err != nil {
			return nil, err
		}
		m.set("mech.row_params"+mc.suffix+"_ns", rowNS)
		m.set("mech.on_activate"+mc.suffix+"_ns", actNS)
	}
	if err := setupMicro(m, cfg, o); err != nil {
		return nil, err
	}
	m.set("obs.counter_ns", obsMicro(o.MicroIters))
	hookNS, err := integrityMicro(cfg.DRAM, o.MicroIters)
	if err != nil {
		return nil, err
	}
	m.set("integrity.hook_ns", hookNS)

	if err := sweepRows(ctx, m, w, o); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	res.Samples = engineReps
	res.Metrics, err = m.done()
	return res, err
}

// loopRows sets the rows read off the bare step loop's spans, each the
// median over the loop's runs. nsPerActiveStep is the event-driven
// engine's measured cost of one active step, for the residual.
func loopRows(m *Metrics, bare loopSet, nsPerActiveStep float64) {
	stepNS := bare.med(func(r *LoopResult) float64 { return r.perStep(spStep) })
	// The engine's own horizon is NextEventAt plus one SkipBound per core;
	// NextReadyAt is what NextEventAt calls inside, timed apart as a dram
	// row, so it is not added again.
	horizonNS := bare.med(func(r *LoopResult) float64 { return r.perStep(spNextEvent) + r.perStep(spSkipBound) })
	share := func(kinds ...spanKind) func(*LoopResult) float64 {
		return func(r *LoopResult) float64 {
			var ns int64
			for _, k := range kinds {
				ns += r.Stats[k].SelfNS
			}
			return ratio(float64(ns), float64(r.Stats[spStep].NetNS))
		}
	}
	mean := func(k spanKind) float64 {
		return bare.med(func(r *LoopResult) float64 { return r.Stats[k].mean() })
	}
	m.set("sim.horizon_query_ns_per_step", horizonNS)
	m.set("sim.residual_ns_per_active_step", nsPerActiveStep-stepNS-horizonNS)
	m.set("cpu.cycle_ns", bare.med(func(r *LoopResult) float64 { return r.Stats[spCPUCycle].selfMean() }))
	m.set("cpu.cycle_calls", float64(bare[0].CycleCalls))
	m.set("cpu.step_share", bare.med(share(spCPUCycle)))
	m.set("cpu.skip_bound_ns", mean(spSkipBound))
	m.set("controller.tick_ns", mean(spTick))
	m.set("controller.step_share", bare.med(share(spTick, spEnqueue, spDrain)))
	m.set("controller.next_event_ns", mean(spNextEvent))
	m.set("controller.enqueue_ns", mean(spEnqueue))
	m.set("controller.enqueue_reject_ratio", ratio(float64(bare[0].Rejects), float64(bare[0].Attempts)))
	m.set("controller.drain_ns", mean(spDrain))
	m.set("dram.rank_busy_ns", mean(spRankBusy))
	m.set("dram.next_ready_ns", mean(spNextReady))
}

// countRows sets the simulated counts of one event-driven run.
func countRows(m *Metrics, ev *sim.Result) {
	m.set("cpu.retired_insts", float64(ev.RetiredInsts))
	var stalls int64
	for _, c := range ev.Cores {
		stalls += c.FetchStalls
	}
	m.set("cpu.fetch_stalls", float64(stalls))
	cs := ev.Ctrl
	m.set("controller.reads_done", float64(cs.ReadsDone))
	m.set("controller.writes_done", float64(cs.WritesDone))
	m.set("controller.row_hit_ratio", ratio(float64(cs.RowHits), float64(cs.RowHits+cs.RowMisses+cs.RowConflicts)))
	m.set("controller.forced_refreshes", float64(cs.ForcedRefreshes))
	m.set("controller.avg_read_wait_cycles", ratio(float64(cs.TotalReadLatency), float64(cs.ReadsDone)))
	ds := ev.Dev
	m.set("dram.activates", float64(ds.Activates))
	m.set("dram.reads", float64(ds.Reads))
	m.set("dram.writes", float64(ds.Writes))
	m.set("dram.precharges", float64(ds.Precharges))
	m.set("dram.refreshes", float64(ds.Refreshes))
	m.set("dram.skipped_refreshes", float64(ds.SkippedRefreshes))
	m.set("mech.mcr_activate_ratio", ratio(float64(ds.MCRActivates), float64(ds.Activates)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runOnce builds and runs one simulation, returning the Run wall in
// seconds. It collects garbage first, so that no timed run pays for what
// the pass allocated before it.
func runOnce(ctx context.Context, cfg sim.Config) (*sim.Result, float64, error) {
	runtime.GC()
	s, err := sim.NewSim(cfg)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	res, err := s.Run(ctx)
	return res, time.Since(t0).Seconds(), err
}

// overheadRow sets name to the median Run wall of with() over that of
// bare(), overheadReps runs each, interleaved. The builders are called
// per run so that every run gets fresh attachments.
func overheadRow(ctx context.Context, m *Metrics, name string, bare, with func() sim.Config) error {
	var bareWalls, withWalls []float64
	for i := 0; i < overheadReps; i++ {
		_, wall, err := runOnce(ctx, bare())
		if err != nil {
			return err
		}
		bareWalls = append(bareWalls, wall)
		if _, wall, err = runOnce(ctx, with()); err != nil {
			return err
		}
		withWalls = append(withWalls, wall)
	}
	m.set(name, pairedRatio(withWalls, bareWalls))
	return nil
}

// pairedRatio is the median of num[i]/den[i]: the two were measured
// back to back, so a slow minute of the host scales both and cancels,
// which the ratio of the two medians would not guarantee.
func pairedRatio(num, den []float64) float64 {
	rs := make([]float64, len(num))
	for i := range num {
		rs[i] = num[i] / den[i]
	}
	return median(rs)
}

// loopSet is the runs of one loop variant; a per-layer figure is the
// median over them of the per-run statistic.
type loopSet []*LoopResult

func (s loopSet) med(f func(*LoopResult) float64) float64 {
	xs := make([]float64, len(s))
	for i, r := range s {
		xs[i] = f(r)
	}
	return median(xs)
}

func runLoop(cfg sim.Config, at Attach, every, memCycles int64) (*LoopResult, error) {
	runtime.GC()
	l, err := NewStepLoop(cfg, at, every, memCycles)
	if err != nil {
		return nil, err
	}
	return l.Run()
}

// snapshotRows times the snapshot layer on a mid-run state: the first
// periodic snapshot of the guarded run, or a fresh simulation's when the
// run was too short to write one.
func snapshotRows(m *Metrics, gcfg sim.Config, data []byte, path string) error {
	// Restore compares configurations, and the run that wrote the
	// snapshot has removed its file: rebuild from the bytes kept.
	cfg := gcfg
	cfg.Checkpoint = &sim.CheckpointConfig{Path: path, EveryNCycles: checkpointEvery}
	cfg.Metrics, cfg.Trace = obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCap)
	if data == nil {
		s, err := sim.NewSim(cfg)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			return err
		}
		data = buf.Bytes()
	}
	m.set("snapshot.bytes", float64(len(data)))
	t0 := time.Now()
	s, err := sim.Restore(bytes.NewReader(data), cfg)
	if err != nil {
		return fmt.Errorf("bench: restoring snapshot: %w", err)
	}
	m.set("snapshot.restore_ms", ms(time.Since(t0)))
	var buf bytes.Buffer
	t0 = time.Now()
	if err := s.Checkpoint(&buf); err != nil {
		return err
	}
	m.set("snapshot.encode_ms", ms(time.Since(t0)))
	st, err := snapshot.Decode(bytes.NewReader(data))
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := snapshot.WriteFile(path, st); err != nil {
		return err
	}
	m.set("snapshot.write_file_ms", ms(time.Since(t0)))
	return os.Remove(path)
}

// bankAddr spreads iteration i over every bank of the geometry.
func bankAddr(g core.Geometry, i int) core.Address {
	nb := g.Channels * g.Ranks * g.Banks
	b := i % nb
	return core.Address{
		Channel: b / (g.Ranks * g.Banks), Rank: b / g.Banks % g.Ranks, Bank: b % g.Banks,
		Row: i / nb * 7919 % g.Rows, Column: i % g.Columns,
	}
}

// dramMicro times the device alone. cmdNS: a legal ACT → RD/WR → PRE
// rotation over all banks, each command issued at the cycle its
// Earliest* query returned (so one query rides with each command, as in
// the scheduler). queryNS: the Earliest* queries alone, on a device with
// every other bank open.
func dramMicro(cfg dram.Config, iters int) (cmdNS, queryNS float64, err error) {
	dev, err := dram.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	g := cfg.Geom
	var now int64
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		a := bankAddr(g, i)
		t, _ := dev.EarliestActivate(a, now)
		dev.Activate(a, t)
		if i%3 == 2 {
			t, _ = dev.EarliestWrite(a, t)
			dev.Write(a, t)
		} else {
			t, _ = dev.EarliestRead(a, t)
			dev.Read(a, t)
		}
		t, _ = dev.EarliestPrecharge(a, t)
		dev.Precharge(a, t)
		now = t
	}
	cmdNS = float64(time.Since(t0)) / float64(3*iters)

	nb := g.Channels * g.Ranks * g.Banks
	for b := 0; b < nb; b += 2 {
		a := bankAddr(g, b)
		t, _ := dev.EarliestActivate(a, now)
		dev.Activate(a, t)
		now = t
	}
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		a := bankAddr(g, i%nb)
		var t int64
		if i%nb%2 == 0 {
			t, _ = dev.EarliestRead(a, now)
		} else {
			t, _ = dev.EarliestActivate(a, now)
		}
		sink += t
	}
	queryNS = float64(time.Since(t0)) / float64(iters)
	return cmdNS, queryNS, nil
}

// mechMicro times the mechanism seam alone: RowParams and OnActivate over
// a stride of rows.
func mechMicro(cfg dram.Config, iters int) (rowNS, actNS float64, err error) {
	mc, err := mech.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	rows := cfg.Geom.Rows
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		p, _ := mc.RowParams(i * 7919 % rows)
		sink += int64(p.TRCD)
	}
	rowNS = float64(time.Since(t0)) / float64(iters)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		extra, _, _ := mc.OnActivate(i*7919%rows, int64(i))
		sink += extra
	}
	actNS = float64(time.Since(t0)) / float64(iters)
	return rowNS, actNS, nil
}

// setupMicro times the layers a set-up is made of: the trace generator,
// the profiling pass and allocator of the Fig 12 path, and timing
// resolution.
func setupMicro(m *Metrics, cfg sim.Config, o Options) error {
	w, err := trace.ByName(cfg.Workloads[0])
	if err != nil {
		return err
	}
	gen, err := trace.New(w, cfg.Seed*1_000_003, cfg.InstsPerCore, 0)
	if err != nil {
		return err
	}
	var records int64
	t0 := time.Now()
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		sink += rec.Line
		records++
	}
	m.set("trace.next_ns", ratio(float64(time.Since(t0)), float64(records)))
	m.set("trace.records", float64(records))

	profInsts := int64(2_000_000)
	if o.Insts > 0 {
		profInsts = o.Insts
	}
	comm2, err := trace.ByName("comm2")
	if err != nil {
		return err
	}
	t0 = time.Now()
	prof, err := trace.Profile(comm2, o.Seed, profInsts, 0)
	if err != nil {
		return err
	}
	m.set("trace.profile_ms", ms(time.Since(t0)))

	// The allocator on that profile, as sim's buildAllocation feeds it:
	// mode [4/4x/50%reg], hottest 30% of each bank's touched rows.
	mode, err := mcr.NewMode(4, 4, 0.5)
	if err != nil {
		return err
	}
	dcfg := dram.DefaultConfig(mode)
	dev, err := dram.New(dcfg)
	if err != nil {
		return err
	}
	mapper, err := controller.NewAddressMapper(dcfg.Geom, cfg.Ctrl.Mapping)
	if err != nil {
		return err
	}
	counts := make(map[int]map[int]int64)
	for traceRow, n := range prof {
		a := mapper.Decode(traceRow * trace.LinesPerRow)
		bid := a.BankID(dcfg.Geom)
		if counts[bid] == nil {
			counts[bid] = make(map[int]int64)
		}
		counts[bid][a.Row] += n
	}
	t0 = time.Now()
	if _, err := alloc.ProfileBased(dcfg.Geom, dev.Generator(), counts, 0.30); err != nil {
		return err
	}
	m.set("alloc.build_ms", ms(time.Since(t0)))

	const resolves = 200
	t0 = time.Now()
	for i := 0; i < resolves; i++ {
		tim, err := dram.ResolveTimings(cfg.DRAM)
		if err != nil {
			return err
		}
		sink += int64(tim.Normal.TRCD)
	}
	m.set("timing.resolve_us", float64(time.Since(t0))/1e3/resolves)
	return nil
}

// obsMicro times the registry's counters: one IncCommand and one RowHit
// per iteration, reported per call.
func obsMicro(iters int) float64 {
	reg := obs.NewRegistry()
	reg.EnsureBanks(16)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		reg.IncCommand(obs.CmdACT, i&15)
		reg.RowHit()
	}
	return float64(time.Since(t0)) / float64(2*iters)
}

// integrityMicro times the checker's device hooks: one Activated and one
// Precharged per iteration, reported per call.
func integrityMicro(cfg dram.Config, iters int) (float64, error) {
	dev, err := dram.New(cfg)
	if err != nil {
		return 0, err
	}
	ad, err := integrity.Attach(dev, integrity.DefaultConfig())
	if err != nil {
		return 0, err
	}
	g := cfg.Geom
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		a := bankAddr(g, i)
		now := int64(i) * 40
		ad.Activated(a, now)
		ad.Precharged(a, a.Row, dev.MEff(a.Row), now+30)
	}
	return float64(time.Since(t0)) / float64(2*iters), nil
}

// sweepRows runs Fig 11 over the workload's traces on the pool and again
// serially: the runplan rows and the accuracy row.
func sweepRows(ctx context.Context, m *Metrics, w Workload, o Options) error {
	sw, err := WorkloadByName("sweep_fig11")
	if err != nil {
		return err
	}
	insts := sw.insts(o, false)
	jobs := poolJobs()
	s, tot, wall, err := runSweep(ctx, w, o, insts, jobs)
	if err != nil {
		return err
	}
	_, serialTot, serialWall, err := runSweep(ctx, w, o, insts, 1)
	if err != nil {
		return err
	}
	m.set("runplan.runs_executed", float64(tot.runs))
	m.set("runplan.baseline_runs", float64(tot.baselines))
	m.set("runplan.pool_busy_ratio", ratio(float64(tot.busy), float64(jobs)*float64(wall)))
	m.set("runplan.overhead_ms", ms(serialWall-serialTot.busy))
	m.set("runplan.serial_ratio", ratio(float64(wall), float64(serialWall)))
	m.set("experiments.paper_gap_pp", math.Abs(s.Average[fig11Headline].ExecTime-paperFig11Pct))
	return nil
}
