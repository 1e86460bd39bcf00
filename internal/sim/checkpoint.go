// Checkpoint/restore of the full simulator: the Sim handle owns the
// assembled system (device, controller, cores, integrity checker,
// resilience policy, cycle-loop state) so a run can be frozen at a
// quiescent cycle boundary and resumed later — byte-identical to the
// uninterrupted run. Snapshots are written at the amortized poll boundary
// (mem & 0xFFF == 0), immediately after the resilience poll and before
// the cycle body, so a restored loop re-enters at the recorded cycle,
// re-polls idempotently (the violation cursor is saved post-poll) and
// continues as if never interrupted.

package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/power"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// CheckpointConfig enables crash-safe periodic snapshots and resume.
type CheckpointConfig struct {
	// Path is the snapshot file location. The file is written atomically
	// through the temp file Path+".tmp", renamed over Path; both are
	// removed when the run completes. A killed run may leave the temp
	// file, which the next write reuses. Two runs that write one Path at
	// the same time are unsupported.
	Path string
	// EveryNCycles is the minimum memory-cycle gap between snapshot
	// writes; 0 disables periodic writes (Path may still be resumed from).
	EveryNCycles int64
	// Resume makes the run start from the snapshot at Path when one is
	// present; a missing or unreadable snapshot falls back to a fresh
	// start unless Strict is set.
	Resume bool
	// Strict turns a missing, corrupted or mismatched snapshot into an
	// error instead of a silent fresh start.
	Strict bool

	// OnWrite, when non-nil, observes each successful snapshot write;
	// OnResume observes a successful restore. Both receive the cycle.
	OnWrite  func(cycle int64) `json:"-"`
	OnResume func(cycle int64) `json:"-"`
}

// writes reports whether the configuration writes periodic snapshots.
func (c *CheckpointConfig) writes() bool {
	return c != nil && c.Path != "" && c.EveryNCycles > 0
}

// Validate checks the checkpoint configuration.
func (c CheckpointConfig) Validate() error {
	if c.EveryNCycles > 0 && c.Path == "" {
		return fmt.Errorf("sim: checkpoint EveryNCycles set but no path given")
	}
	return core.Within("sim: checkpoint EveryNCycles", c.EveryNCycles, core.Closed, 0, math.MaxInt64)
}

// Sim is an assembled simulation that can run, checkpoint and resume.
type Sim struct {
	cfg     Config
	dev     *dram.Device
	ctrl    *controller.Controller
	cores   []*cpu.Core
	checker *integrity.DeviceAdapter
	resil   *resilienceState
	ls      *loopState
	// next is the memory cycle the loop (re)starts at: 0 for a fresh
	// simulation, the snapshot's recorded cycle after a restore.
	next int64
}

// NewSim validates the configuration and assembles the full system at
// cycle zero. Use Restore (or the Config.Checkpoint resume path) to
// start from a snapshot instead.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dev, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}

	rows, err := buildAllocation(cfg, dev)
	if err != nil {
		return nil, err
	}
	// Fault injection implies the integrity checker: faults only surface
	// as violations through it.
	var fm *fault.Model
	if cfg.Fault != nil && cfg.Fault.Enabled() {
		fcfg := *cfg.Fault
		if fcfg.Seed == 0 {
			fcfg.Seed = cfg.Seed
		}
		fm, err = fault.NewModel(fcfg, cfg.DRAM.Geom.Rows)
		if err != nil {
			return nil, err
		}
	}
	icfg := cfg.Integrity
	if icfg == nil && (fm != nil || cfg.Resilience != nil) {
		def := integrity.DefaultConfig()
		icfg = &def
	}
	var checker *integrity.DeviceAdapter
	if icfg != nil {
		if fm != nil {
			checker, err = integrity.AttachWithFaults(dev, *icfg, fm)
		} else {
			checker, err = integrity.Attach(dev, *icfg)
		}
		if err != nil {
			return nil, err
		}
	}
	ctrl, err := controller.New(cfg.Ctrl, dev, rows)
	if err != nil {
		return nil, err
	}
	var resil *resilienceState
	if cfg.Resilience != nil {
		resil, err = newResilience(*cfg.Resilience, dev, ctrl, checker)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Metrics != nil || cfg.Trace != nil {
		geom := cfg.DRAM.Geom
		cfg.Metrics.EnsureBanks(geom.Channels * geom.Ranks * geom.Banks)
		dev.SetObservability(cfg.Metrics, cfg.Trace)
		ctrl.SetObservability(cfg.Metrics, cfg.Trace)
		if resil != nil {
			resil.obs, resil.tr = cfg.Metrics, cfg.Trace
		}
	}

	cores := make([]*cpu.Core, len(cfg.Workloads))
	for i, name := range cfg.Workloads {
		w, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		gen, err := trace.New(w, coreSeed(cfg.Seed, i), cfg.InstsPerCore, coreBaseRow(cfg, dev.Config().Geom, i))
		if err != nil {
			return nil, err
		}
		cores[i], err = cpu.New(cfg.CPU, i, gen, ctrl, cfg.InstsPerCore)
		if err != nil {
			return nil, err
		}
	}

	geom := dev.Config().Geom
	return &Sim{
		cfg:     cfg,
		dev:     dev,
		ctrl:    ctrl,
		cores:   cores,
		checker: checker,
		resil:   resil,
		ls: &loopState{
			cfg:   cfg,
			geom:  geom,
			dev:   dev,
			ctrl:  ctrl,
			cores: cores,
			polls: resil != nil || cfg.Checkpoint.writes(),
			LoopState: snapshot.LoopState{
				IdleStreak: make([]int, geom.Channels*geom.Ranks),
				Hist:       (*snapshot.Histogram)(NewLatencyHistogram()),
				Warmed:     cfg.WarmupInsts <= 0,
			},
		},
	}, nil
}

// openSim builds the Sim a RunContext call needs: a restore from the
// configured checkpoint when resume is requested and a snapshot exists,
// a fresh simulation otherwise.
func openSim(cfg Config) (*Sim, error) {
	ck := cfg.Checkpoint
	if ck == nil || !ck.Resume || ck.Path == "" {
		return NewSim(cfg)
	}
	f, err := os.Open(ck.Path)
	if err != nil {
		if os.IsNotExist(err) && !ck.Strict {
			return NewSim(cfg)
		}
		return nil, fmt.Errorf("sim: opening checkpoint: %w", err)
	}
	defer f.Close()
	s, err := Restore(f, cfg)
	if err != nil {
		if ck.Strict {
			return nil, fmt.Errorf("sim: restoring checkpoint %s: %w", ck.Path, err)
		}
		return NewSim(cfg)
	}
	if ck.OnResume != nil {
		ck.OnResume(s.next)
	}
	return s, nil
}

// Run executes the simulation to completion (see RunContext for the
// cancellation contract).
func (s *Sim) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now() //mcrlint:allow determinism wall-clock instrumentation (Result.Wall), never results
	res, err := s.run(ctx)
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start) //mcrlint:allow determinism Result.Wall is documented host wall-clock instrumentation
	return res, nil
}

// run is the main cycle loop: 4 CPU cycles then 1 controller cycle per
// memory cycle, with rank-state power accounting. The per-cycle body
// lives in loopState.step; run keeps the amortized cancellation poll,
// the runaway guard, the checkpoint writer and the result-building
// epilogue, all of which may allocate.
func (s *Sim) run(ctx context.Context) (*Result, error) {
	ck := s.cfg.Checkpoint
	writing := ck.writes()
	eventDriven := s.cfg.Engine == EventDriven
	lastWrite := s.next
	var mem int64
	for mem = s.next; ; mem++ {
		if mem > maxMemCycles {
			return nil, fmt.Errorf("sim: exceeded %d memory cycles without finishing", maxMemCycles)
		}
		// Cancellation check and resilience poll, amortized so the hot
		// loop stays branch-cheap. The polling cadence models a periodic
		// ECC scrub: detection lags the violation by at most 4096 memory
		// cycles (~5 µs), far inside any retention margin of interest.
		// Checkpoints are written here too, after the poll: the snapshot
		// then carries the post-poll violation cursor, so the resumed
		// loop's re-poll at this cycle is an idempotent no-op.
		if mem&(pollEvery-1) == 0 {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if s.resil != nil {
				s.resil.poll(mem)
			}
			if writing && mem-lastWrite >= ck.EveryNCycles {
				s.next = mem
				st, err := s.exportState()
				if err != nil {
					return nil, err
				}
				if err := snapshot.WriteFile(ck.Path, st); err != nil {
					return nil, err
				}
				lastWrite = mem
				if ck.OnWrite != nil {
					ck.OnWrite(mem)
				}
			}
		}
		if s.ls.step(mem) {
			break
		}
		if eventDriven {
			// Run the memory side alone up to the next cycle a core can
			// act at. That horizon crosses no boundary where resilience
			// polls or a checkpoint may be written, so the block above
			// fires at exactly the stepped engine's cycles; the run
			// checks cancellation at the boundaries it does cross.
			var err error
			if mem, err = s.ls.runController(ctx, mem); err != nil {
				return nil, err
			}
		}
	}
	res, err := s.finish(mem)
	if err != nil {
		return nil, err
	}
	// A completed run's snapshot is stale — a later resume must not
	// replay the finished simulation — so remove it, and the temp file a
	// killed earlier run may have left beside it.
	if ck != nil && ck.Path != "" {
		if err := snapshot.Remove(ck.Path); err != nil {
			return nil, fmt.Errorf("sim: removing completed checkpoint: %w", err)
		}
	}
	return res, nil
}

// finish builds the Result once the loop has drained at cycle mem.
func (s *Sim) finish(mem int64) (*Result, error) {
	cfg, ls := s.cfg, s.ls
	activeCyc, standbyCyc, pdCyc := ls.ActiveCyc, ls.StandbyCyc, ls.PDCyc
	totalReadLatency, reads, hist, cpuCycle := ls.TotalReadLatency, ls.Reads, ls.hist(), ls.CPUCycle

	res := &Result{Workloads: cfg.Workloads, ReadCount: reads, Latency: hist, MemCycles: mem}
	if s.checker != nil {
		s.checker.Finish(mem)
		// Non-nil even when clean, so consumers can tell "verified safe"
		// from "checker not attached".
		res.Integrity = append([]integrity.Violation{}, s.checker.Violations()...)
	}
	if s.resil != nil {
		res.Resilience = s.resil.finish(mem)
	}
	for i, c := range s.cores {
		if c.DoneAt() > res.ExecCPUCycles {
			res.ExecCPUCycles = c.DoneAt()
		}
		cs := CoreStats{
			CoreID:       i,
			Workload:     cfg.Workloads[i],
			Retired:      c.Retired(),
			DoneAtCPU:    c.DoneAt(),
			ReadsIssued:  c.ReadsIssued,
			WritesIssued: c.WritesIssued,
			FetchStalls:  c.FetchStalls,
		}
		if cs.DoneAtCPU > 0 {
			cs.IPC = float64(cs.Retired) / float64(cs.DoneAtCPU)
		}
		res.RetiredInsts += cs.Retired
		res.Cores = append(res.Cores, cs)
	}
	if res.ExecCPUCycles == 0 {
		res.ExecCPUCycles = cpuCycle
	}
	if reads > 0 {
		res.AvgReadLatencyNS = core.MemCyclesToNS(totalReadLatency) / float64(reads)
	}
	res.IPC = float64(cfg.InstsPerCore) * float64(len(s.cores)) / float64(res.ExecCPUCycles)

	res.Dev = s.dev.Stats()
	res.Ctrl = s.ctrl.Stats()
	res.Mechanism = s.dev.MechanismName()
	mstats := s.dev.MechStats()
	res.MechStats = &mstats
	// Engine accounting is pushed once, here, so mid-run checkpoint
	// snapshots carry zero engine counters on both engines and stay
	// byte-compatible across them.
	cfg.Metrics.AddEngineCycles(mem-ls.SkippedCycles, ls.SkippedCycles)
	res.Obs = cfg.Metrics.Snapshot()
	if res.Ctrl.ReadsDone > 0 {
		res.MCRRequestFraction = float64(res.Ctrl.MCRReads) / float64(res.Ctrl.ReadsDone)
	}

	tim := s.dev.Timings()
	usage := power.Usage{
		NormalActs:       res.Dev.Activates - res.Dev.MCRActivates,
		MCRActs:          res.Dev.MCRActivates,
		Reads:            res.Dev.Reads,
		Writes:           res.Dev.Writes,
		NormalRefs:       res.Dev.Refreshes - res.Dev.MCRRefreshes,
		MCRRefs:          res.Dev.MCRRefreshes,
		MCRRows:          s.dev.Config().EffectiveLayout().MaxK(),
		MCRTRASRatio:     float64(tim.MCR.TRAS) / float64(tim.Normal.TRAS),
		MCRTRFCRatio:     float64(tim.RefreshMCRCycles) / float64(tim.Normal.TRFC),
		ElapsedMemCycles: mem,
		ActiveCycles:     activeCyc,
		StandbyCycles:    standbyCyc,
		PowerDownCycles:  pdCyc,
	}
	res.Energy = cfg.Power.Energy(usage)
	res.EDPNJs = power.EDP(res.Energy.TotalNJ(), mem)
	return res, nil
}

// Checkpoint writes the simulator's complete state to w in the snapshot
// envelope. Only meaningful at the quiescent points the run loop writes
// from; external callers should use it before Run or after an error.
func (s *Sim) Checkpoint(w io.Writer) error {
	st, err := s.exportState()
	if err != nil {
		return err
	}
	return snapshot.Encode(w, st)
}

// Restore decodes a snapshot from r and rebuilds a Sim positioned at the
// recorded cycle. cfg must be the configuration of the checkpointed run
// (snapshot.ErrConfigMismatch otherwise); the observability attachments
// (Metrics/Trace) may differ but a snapshot with trace events requires a
// tracer of the same capacity.
func Restore(r io.Reader, cfg Config) (*Sim, error) {
	st, err := snapshot.Decode(r)
	if err != nil {
		return nil, err
	}
	want, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: marshalling config: %w", err)
	}
	if !bytes.Equal(want, st.ConfigJSON) {
		return nil, fmt.Errorf("%w (snapshot %s, caller %s)", snapshot.ErrConfigMismatch, st.ConfigJSON, want)
	}
	s, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.importState(st); err != nil {
		// The checksum only says these are the bytes that were written: a
		// state that does not fit its own configuration is corrupt too,
		// whichever component noticed.
		return nil, fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
	}
	return s, nil
}

// exportState assembles the complete simulator state for a snapshot. The
// loop state is the live value itself and the trace state is the tracer's
// own ring, so their slices alias the running simulation's: both callers
// encode the result before the loop moves (or the tracer emits) again.
func (s *Sim) exportState() (*snapshot.State, error) {
	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: marshalling config: %w", err)
	}
	st := &snapshot.State{
		ConfigJSON: cfgJSON,
		NextCycle:  s.next,
		Device:     s.dev.ExportState(),
		Controller: s.ctrl.ExportState(),
		Cores:      make([]cpu.State, len(s.cores)),
		Obs:        s.cfg.Metrics.Snapshot(),
		Trace:      s.cfg.Trace.ExportState(),
		Loop:       s.ls.LoopState,
	}
	for i, c := range s.cores {
		st.Cores[i] = c.ExportState()
	}
	if s.checker != nil {
		ist := s.checker.Checker().ExportState()
		st.Integrity = &ist
	}
	if s.resil != nil {
		st.Resilience = s.resil.export()
	}
	return st, nil
}

// importState reinstates a decoded snapshot on a freshly built Sim of
// the same configuration. Every component checks the widths, indices and
// cursors it is handed against that configuration before storing them.
func (s *Sim) importState(st *snapshot.State) error {
	if st.NextCycle < 0 {
		return fmt.Errorf("sim: checkpoint cycle must be non-negative, got %d", st.NextCycle)
	}
	if len(st.Cores) != len(s.cores) {
		return fmt.Errorf("sim: checkpoint has %d cores, config has %d", len(st.Cores), len(s.cores))
	}
	if err := s.checkCoreIDs(st); err != nil {
		return err
	}
	if err := s.dev.ImportState(st.Device); err != nil {
		return err
	}
	if err := s.ctrl.ImportState(st.Controller); err != nil {
		return err
	}
	for i, c := range s.cores {
		if err := c.ImportState(st.Cores[i]); err != nil {
			return err
		}
	}
	// Config equality already guarantees checker/resilience presence
	// matches; these are defense against a hand-built snapshot.
	switch {
	case st.Integrity != nil && s.checker == nil:
		return fmt.Errorf("sim: checkpoint carries integrity state but the checker is not attached")
	case st.Integrity == nil && s.checker != nil:
		return fmt.Errorf("sim: integrity checker attached but checkpoint has no integrity state")
	case st.Integrity != nil:
		if err := s.checker.Checker().ImportState(*st.Integrity); err != nil {
			return err
		}
	}
	switch {
	case st.Resilience != nil && s.resil == nil:
		return fmt.Errorf("sim: checkpoint carries resilience state but the policy is not enabled")
	case st.Resilience == nil && s.resil != nil:
		return fmt.Errorf("sim: resilience policy enabled but checkpoint has no resilience state")
	case st.Resilience != nil:
		if err := s.resil.restore(st.Resilience); err != nil {
			return err
		}
	}
	if err := s.ls.importLoop(st.Loop); err != nil {
		return err
	}
	// The tracer and the registry belong to the caller, who falls back to
	// a fresh start with the same two when a lenient restore fails: they
	// go last, the one that can refuse first, so a failed restore leaves
	// both as they were.
	if err := s.cfg.Trace.ImportState(st.Trace); err != nil {
		return err
	}
	s.cfg.Metrics.ImportSnapshot(st.Obs)
	s.next = st.NextCycle
	return nil
}

// checkCoreIDs range-checks every core id a completion will be delivered
// by: the loop indexes its cores with the id of each in-flight completion,
// each completion the controller has not handed over yet, and each queued
// read that will become one.
func (s *Sim) checkCoreIDs(st *snapshot.State) error {
	n := len(s.cores)
	for _, list := range [][]controller.Completion{st.Loop.Pending, st.Controller.Completions} {
		for _, c := range list {
			if c.CoreID < 0 || c.CoreID >= n {
				return fmt.Errorf("sim: checkpointed completion %d is for core %d, config has %d cores", c.ID, c.CoreID, n)
			}
		}
	}
	for _, q := range st.Controller.ReadQ {
		for _, r := range q {
			if r.CoreID < 0 || int(r.CoreID) >= n {
				return fmt.Errorf("sim: checkpointed read %d is for core %d, config has %d cores", r.ID, r.CoreID, n)
			}
		}
	}
	return nil
}

// importLoop reinstates the cycle-loop state: the decoded value becomes
// the live one once its widths match this configuration and this build's
// histogram buckets.
func (ls *loopState) importLoop(st snapshot.LoopState) error {
	if len(st.IdleStreak) != len(ls.IdleStreak) {
		return fmt.Errorf("sim: checkpoint has %d rank idle counters, config has %d", len(st.IdleStreak), len(ls.IdleStreak))
	}
	if st.Hist == nil || !slices.Equal(st.Hist.BoundsNS, ls.Hist.BoundsNS) || len(st.Hist.Counts) != len(ls.Hist.Counts) {
		return fmt.Errorf("sim: checkpoint latency-histogram shape does not match this build")
	}
	ls.LoopState = st
	return nil
}

// export returns the degradation policy's state for a snapshot: the live
// cursor and counters plus the serialised forms of the dedup set and the
// governor.
func (r *resilienceState) export() *snapshot.ResilienceState {
	st := r.ResilienceState
	for k := range r.seen { //mcrlint:allow determinism sorted immediately below, order-free
		st.Seen = append(st.Seen, k)
	}
	sort.Slice(st.Seen, func(i, j int) bool {
		if st.Seen[i][0] != st.Seen[j][0] {
			return st.Seen[i][0] < st.Seen[j][0]
		}
		return st.Seen[i][1] < st.Seen[j][1]
	})
	if r.gov != nil {
		pos, violations := r.gov.ExportState()
		st.Governor = &snapshot.GovernorState{Pos: pos, Violations: violations}
	}
	return &st
}

// restore reinstates the degradation policy's state on a freshly built
// policy (Stats.InitialMode included: the restored device is already
// mid-degradation, so the label must come from the snapshot).
func (r *resilienceState) restore(st *snapshot.ResilienceState) error {
	if st.Processed < 0 || (r.checker != nil && st.Processed > r.checker.Checker().ViolationCount()) {
		return fmt.Errorf("sim: checkpoint violation cursor %d is out of range", st.Processed)
	}
	switch {
	case st.Governor != nil && r.gov == nil:
		return fmt.Errorf("sim: checkpoint carries governor state but the policy built no governor")
	case st.Governor == nil && r.gov != nil:
		return fmt.Errorf("sim: policy built a governor but checkpoint has no governor state")
	case st.Governor != nil:
		if err := r.gov.RestoreState(st.Governor.Pos, st.Governor.Violations); err != nil {
			return err
		}
	}
	r.seen = make(map[[2]int]bool, len(st.Seen))
	for _, k := range st.Seen {
		r.seen[k] = true
	}
	r.ResilienceState = *st
	r.Seen, r.Governor = nil, nil
	return nil
}
