package sim

import (
	"context"
	"time"

	"repro/internal/alloc"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	DRAM  dram.Config
	Ctrl  controller.Config
	CPU   cpu.Config
	Power power.Params

	// Workloads holds one Table 5 workload name per core.
	Workloads []string
	// InstsPerCore is the instruction budget of each core.
	InstsPerCore int64
	// Seed makes runs deterministic; the same seed must be used for the
	// baseline and the MCR run of a comparison.
	Seed int64
	// AllocRatio enables pseudo profile-based page allocation: the hottest
	// AllocRatio fraction of each bank's touched rows moves into the MCR
	// region. 0 disables allocation.
	AllocRatio float64
	// AllocRatio4/AllocRatio2 drive the combined-layout allocator when
	// DRAM.Layout is enabled: the hottest AllocRatio4 fraction goes to the
	// 4x band, the next AllocRatio2 fraction to the 2x band.
	AllocRatio4, AllocRatio2 float64
	// SharedFootprint makes all cores walk the same address-space slice
	// (multithreaded workloads).
	SharedFootprint bool
	// PowerDownCycles is how many idle memory cycles a rank waits before
	// entering the low-power state (0 disables power-down modelling).
	PowerDownCycles int
	// Integrity, when non-nil, attaches the retention-safety checker to
	// the device; violations land in Result.Integrity.
	Integrity *integrity.Config
	// Fault, when non-nil and enabled, injects the deterministic cell
	// fault population into the integrity model (attaching the checker
	// with its default configuration if Integrity is nil). The zero-value
	// fault config injects nothing. A Seed of 0 inherits Config.Seed.
	Fault *fault.Config
	// Resilience, when non-nil, enables the graceful-degradation policy:
	// detected violations become ECC events that can quarantine rows and
	// step the device toward safer modes. Requires (and implies) the
	// integrity checker. Stats land in Result.Resilience.
	Resilience *ResilienceConfig
	// WarmupInsts, when positive, marks the first WarmupInsts retired
	// instructions per core as warmup: the read-latency statistics only
	// cover requests that arrive after every core has passed its warmup
	// point (execution time still covers the whole run).
	WarmupInsts int64

	// Metrics, when non-nil, receives the cycle-domain observability
	// counters (per-bank commands, row-buffer outcomes, stall attribution,
	// latency histogram); a snapshot lands in Result.Obs. Trace, when
	// non-nil, records command and policy events into its ring buffer.
	// Both are excluded from JSON so run-plan memoization keys (which
	// marshal the config) are unaffected — observability never changes
	// simulation results.
	Metrics *obs.Registry `json:"-"`
	Trace   *obs.Tracer   `json:"-"`

	// Checkpoint, when non-nil, enables crash-safe periodic snapshots of
	// the complete simulator state and (optionally) resuming from the
	// last one (see CheckpointConfig). Excluded from JSON like the
	// observability attachments: checkpointing never changes results, and
	// the snapshot itself records the marshalled config for the restore-
	// time compatibility check.
	Checkpoint *CheckpointConfig `json:"-"`

	// Engine selects the cycle-advancement strategy: EventDriven (the
	// zero value) skips provably inert spans, Stepped forces the classic
	// per-cycle loop. The two are byte-identical in every Result field,
	// so the engine is excluded from JSON — checkpoints restore across
	// engines and run-plan memo keys are engine-agnostic.
	Engine Engine `json:"-"`
}

// DefaultConfig returns a single-core run of the given workload with MCR
// disabled.
func DefaultConfig(workload string) Config {
	return Config{
		DRAM:            dram.DefaultConfig(mcr.Off()),
		Ctrl:            controller.DefaultConfig(),
		CPU:             cpu.DefaultConfig(),
		Power:           power.Default(),
		Workloads:       []string{workload},
		InstsPerCore:    2_000_000,
		Seed:            1,
		PowerDownCycles: 64,
	}
}

// Result summarizes one run.
type Result struct {
	Workloads []string

	ExecCPUCycles    int64 // cycle the last core retired its last instruction
	ReadCount        int64
	AvgReadLatencyNS float64 // arrival to data completion
	IPC              float64 // aggregate instructions per CPU cycle

	Energy power.Breakdown
	EDPNJs float64 // energy-delay product (nJ*s)

	MCRRequestFraction float64 // fraction of column reads served by MCR rows
	Dev                dram.Stats
	Ctrl               controller.Stats

	// Mechanism names the active latency backend ("mcr", "tldram", "nuat",
	// "crow", "clr") and MechStats carries its backend-specific counters
	// (copies, conversions, reversions...). Both carry omitempty so result
	// archives written before the mechanism seam stay byte-compatible.
	Mechanism string      `json:",omitempty"`
	MechStats *mech.Stats `json:",omitempty"`

	// Latency is the read-latency distribution; Cores holds per-core
	// summaries (in Workloads order).
	Latency *LatencyHistogram
	Cores   []CoreStats

	// Obs is the observability snapshot when Config.Metrics was set.
	Obs *obs.Snapshot

	// Integrity holds retention violations when Config.Integrity was set
	// (empty = schedule verified safe).
	Integrity []integrity.Violation
	// Resilience summarizes the degradation policy when Config.Resilience
	// was set.
	Resilience *ResilienceStats

	// MemCycles is the simulated length of the run in memory-clock cycles
	// (execution plus drain); RetiredInsts sums retirement over all cores.
	MemCycles    int64
	RetiredInsts int64
	// Wall is the host wall-clock duration of the run, for throughput
	// instrumentation (simulated cycles or retired instructions per second).
	Wall time.Duration
}

// Run executes the simulation to completion.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the simulation to completion, aborting early (with
// the context's error) when ctx is cancelled. Cancellation is checked in
// the main cycle loop, so Ctrl-C and test timeouts cut long runs short
// instead of waiting for the instruction budget to drain. With
// Config.Checkpoint set, the run may start from the configured snapshot
// and periodically persists its state (see CheckpointConfig).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	s, err := openSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}

// coreSeed derives a per-core deterministic seed.
func coreSeed(seed int64, coreID int) int64 {
	return seed*1_000_003 + int64(coreID)*7_919
}

// coreBaseRow carves the physical row space (in trace row numbers) into
// per-core slices, or shares slice 0 for multithreaded workloads.
func coreBaseRow(cfg Config, geom core.Geometry, coreID int) int64 {
	if cfg.SharedFootprint {
		return 0
	}
	totalRows := geom.TotalRows()
	return int64(coreID) * (totalRows / int64(len(cfg.Workloads)))
}

// buildAllocation runs the profiling pass and builds the row map.
func buildAllocation(cfg Config, dev *dram.Device) (*alloc.RowMap, error) {
	geom := dev.Config().Geom
	layout := dev.Config().EffectiveLayout()
	wantLayoutAlloc := dev.Config().Layout.Enabled() && (cfg.AllocRatio4 > 0 || cfg.AllocRatio2 > 0)
	if (cfg.AllocRatio == 0 && !wantLayoutAlloc) || !layout.Enabled() {
		return alloc.Identity(geom), nil
	}
	mapper, err := controller.NewAddressMapper(geom, cfg.Ctrl.Mapping)
	if err != nil {
		return nil, err
	}
	counts := make(map[int]map[int]int64)
	for i, name := range cfg.Workloads {
		w, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		prof, err := trace.Profile(w, coreSeed(cfg.Seed, i), cfg.InstsPerCore, coreBaseRow(cfg, geom, i))
		if err != nil {
			return nil, err
		}
		for traceRow, n := range prof {
			a := mapper.Decode(traceRow * trace.LinesPerRow)
			bid := a.BankID(geom)
			if counts[bid] == nil {
				counts[bid] = make(map[int]int64)
			}
			counts[bid][a.Row] += n
		}
	}
	if wantLayoutAlloc {
		return alloc.ProfileBasedLayout(geom, dev.LayoutGenerator(), counts, cfg.AllocRatio4, cfg.AllocRatio2)
	}
	return alloc.ProfileBased(geom, dev.Generator(), counts, cfg.AllocRatio)
}

// The in-flight read completions (LoopState.Pending) form a typed
// min-heap ordered by due cycle. Hand-rolled rather than built on
// container/heap: the heap.Interface Push/Pop seam traffics in any, which
// boxes one Completion per enqueue and per dequeue on the per-cycle path.

// pushCompletion adds a completion and sifts it up to its heap position.
func pushCompletion(q *[]controller.Completion, c controller.Completion) {
	*q = append(*q, c) // capacity reaches the in-flight high-water mark and stays there
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].DoneAt <= h[i].DoneAt {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// popCompletion removes and returns the earliest-due completion, reusing
// the backing array.
func popCompletion(q *[]controller.Completion) controller.Completion {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	*q = h[:n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].DoneAt < h[l].DoneAt {
			m = r
		}
		if h[i].DoneAt <= h[m].DoneAt {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// loopState is the main cycle loop, split out of runLoop so the
// steady-state body (step) can carry its own hot-path mark while runLoop
// keeps the allocating prologue and epilogue. Everything the loop itself
// mutates is the embedded snapshot.LoopState, held live in the form it is
// checkpointed in; the rest is wiring NewSim rebuilds (cores aliases
// Sim.cores).
type loopState struct {
	cfg   Config
	geom  core.Geometry
	dev   *dram.Device
	ctrl  *controller.Controller
	cores []*cpu.Core

	snapshot.LoopState
}

// hist is the read-latency histogram with its statistics attached.
func (ls *loopState) hist() *LatencyHistogram { return (*LatencyHistogram)(ls.Hist) }

// step runs one memory cycle — completion delivery, 4 CPU cycles, one
// controller tick, completion drain and rank-state power accounting —
// and reports whether the run has fully drained.
func (ls *loopState) step(mem int64) (done bool) {
	// Deliver due read completions before the cores run.
	for len(ls.Pending) > 0 && ls.Pending[0].DoneAt <= mem {
		comp := popCompletion(&ls.Pending)
		ls.cores[comp.CoreID].Complete(comp.ID)
	}
	allDone := true
	for _, c := range ls.cores {
		if !c.Done() {
			allDone = false
		}
	}
	if allDone {
		r, w := ls.ctrl.Pending()
		if r == 0 && w == 0 && len(ls.Pending) == 0 {
			return true
		}
	}
	// Under the event engine a core that cannot reach the controller in
	// this memory cycle is not stepped: quiet holds one bit per such core
	// (cores past the 64th simply always step). A parked or finished core
	// gets no call at all, one whose bound covers the whole memory cycle
	// one closed-form replay of it. Neither enqueues, stalls or reads its
	// trace, so the request ids, queue ages and rejections the remaining
	// cores see in the (CPU cycle, core) nest are the stepped loop's.
	// Stepped keeps every call: it is the definition the parity tests
	// hold this against.
	var quiet uint64
	if ls.cfg.Engine == EventDriven {
		for i, c := range ls.cores[:min(len(ls.cores), 64)] {
			b := c.SkipBound()
			if b < int64(core.CPUCyclesPerMemCycle) {
				continue
			}
			if !parked(b) {
				c.FastForward(ls.CPUCycle, int64(core.CPUCyclesPerMemCycle))
			}
			quiet |= 1 << uint(i)
		}
	}
	for i := 0; i < core.CPUCyclesPerMemCycle; i++ {
		for ci, c := range ls.cores {
			if quiet>>uint(ci)&1 == 0 {
				c.Cycle(ls.CPUCycle, mem)
			}
		}
		ls.CPUCycle++
	}
	ls.ctrl.Tick(mem)
	if !ls.Warmed {
		ls.Warmed = true
		for _, c := range ls.cores {
			if c.Retired() < ls.cfg.WarmupInsts {
				ls.Warmed = false
				break
			}
		}
		if ls.Warmed {
			ls.WarmStart = mem
		}
	}
	for _, comp := range ls.ctrl.DrainCompletions() {
		if ls.Warmed && comp.ArriveAt >= ls.WarmStart {
			ls.Reads++
			ls.TotalReadLatency += comp.DoneAt - comp.ArriveAt
			ls.hist().Observe(comp.DoneAt - comp.ArriveAt)
		}
		if comp.DoneAt <= mem {
			ls.cores[comp.CoreID].Complete(comp.ID)
		} else {
			pushCompletion(&ls.Pending, comp)
		}
	}
	// Background power accounting per rank.
	for ch := 0; ch < ls.geom.Channels; ch++ {
		for r := 0; r < ls.geom.Ranks; r++ {
			idx := ch*ls.geom.Ranks + r
			switch {
			case ls.dev.RankBusy(ch, r, mem):
				ls.IdleStreak[idx] = 0
				ls.ActiveCyc++
			case ls.cfg.PowerDownCycles > 0 && ls.IdleStreak[idx] >= ls.cfg.PowerDownCycles:
				ls.PDCyc++
			default:
				ls.IdleStreak[idx]++
				ls.StandbyCyc++
			}
		}
	}
	return false
}
