// Package obs is the cycle-domain observability layer of the simulator:
// a low-overhead metrics registry (atomic counters and fixed-bucket
// histograms on the hot command path), a stall-attribution accounter that
// splits every retired read's latency into its timing-constraint
// components, and a bounded ring-buffer event tracer with a Chrome
// trace_event exporter (see trace.go / chrome.go).
//
// Everything is nil-safe: a disabled (nil) *Registry or *Tracer turns
// every recording call into a near-free no-op, so the simulator threads
// observability through its hot path unconditionally. The increment path
// performs no allocation (pinned by TestRegistryZeroAlloc).
//
// All recorded values are functions of simulated cycles only — never of
// the host wall clock — so snapshots are as deterministic as the
// simulation itself (enforced by the mcrlint determinism check, which
// flags any wall-clock read under internal/).
package obs

import "sync/atomic"

// Cmd indexes the per-bank DRAM command counters.
type Cmd int

// Counted command classes.
const (
	CmdACT Cmd = iota
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
	numCmds
)

// String names the command class.
func (c Cmd) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	}
	return "?"
}

// latencyBoundsCycles are the inclusive upper bounds (memory cycles) of
// the read-latency histogram buckets; a final implicit bucket catches
// overflow. 1 memory cycle = 1.25 ns, so the range spans ~20 ns to
// ~1.3 µs — the same scale as sim.LatencyHistogram's ns buckets.
var latencyBoundsCycles = [...]int64{16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024}

// NumLatencyBuckets is the bucket count of the read-latency histogram
// (bounds plus overflow).
const NumLatencyBuckets = len(latencyBoundsCycles) + 1

// Registry accumulates the hot-path metrics of one (or more) simulation
// runs. All increments use atomic adds on pre-sized arrays, so a registry
// may be shared by concurrent runs; size the per-bank counters with
// EnsureBanks before sharing. The zero value is usable (bank counters
// grow on first EnsureBanks); a nil *Registry disables every method.
type Registry struct {
	banks   int
	perBank []int64 // numCmds consecutive blocks of banks counters

	rowHits      atomic.Int64
	rowMisses    atomic.Int64
	rowConflicts atomic.Int64

	reads   atomic.Int64
	latency [NumLatencyBuckets]atomic.Int64
	stall   [NumStallComponents]atomic.Int64

	refreshDebtPeak atomic.Int64
	modeChanges     atomic.Int64
	quarantines     atomic.Int64
	violations      atomic.Int64

	engineStepped atomic.Int64
	engineSkipped atomic.Int64
}

// NewRegistry returns an empty enabled registry. Per-bank counters are
// sized on attach (sim calls EnsureBanks with the device geometry).
func NewRegistry() *Registry { return &Registry{} }

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// EnsureBanks grows the per-bank command counters to cover n flattened
// bank ids, preserving existing counts. Not safe concurrently with
// increments; call it at setup (sim does, before the run loop starts).
func (r *Registry) EnsureBanks(n int) {
	if r == nil || n <= r.banks {
		return
	}
	grown := make([]int64, int(numCmds)*n)
	for c := 0; c < int(numCmds); c++ {
		copy(grown[c*n:], r.perBank[c*r.banks:(c+1)*r.banks])
	}
	r.banks, r.perBank = n, grown
}

// Banks returns the number of flattened bank ids the registry covers.
func (r *Registry) Banks() int {
	if r == nil {
		return 0
	}
	return r.banks
}

// IncCommand counts one DRAM command against a flattened bank id.
// Out-of-range bank ids (an unsized registry) are dropped silently.
func (r *Registry) IncCommand(c Cmd, bankID int) {
	if r == nil || bankID < 0 || bankID >= r.banks {
		return
	}
	atomic.AddInt64(&r.perBank[int(c)*r.banks+bankID], 1)
}

// RowHit counts one row-buffer hit.
func (r *Registry) RowHit() {
	if r == nil {
		return
	}
	r.rowHits.Add(1)
}

// RowMiss counts one row-buffer miss (ACT issued for a closed bank).
func (r *Registry) RowMiss() {
	if r == nil {
		return
	}
	r.rowMisses.Add(1)
}

// RowConflict counts one row-buffer conflict (PRE issued to evict).
func (r *Registry) RowConflict() {
	if r == nil {
		return
	}
	r.rowConflicts.Add(1)
}

// ObserveRead records one retired read: its stall breakdown into the
// per-component accumulators and its total latency into the histogram.
func (r *Registry) ObserveRead(b StallBreakdown) {
	if r == nil {
		return
	}
	r.reads.Add(1)
	total := int64(0)
	for c, v := range b {
		r.stall[c].Add(v)
		total += v
	}
	i := 0
	for i < len(latencyBoundsCycles) && total > latencyBoundsCycles[i] {
		i++
	}
	r.latency[i].Add(1)
}

// ObserveRefreshDebt raises the peak refresh-debt watermark (pending
// tREFI intervals on one rank) when debt exceeds the recorded peak.
func (r *Registry) ObserveRefreshDebt(debt int) {
	if r == nil {
		return
	}
	d := int64(debt)
	for {
		cur := r.refreshDebtPeak.Load()
		if d <= cur || r.refreshDebtPeak.CompareAndSwap(cur, d) {
			return
		}
	}
}

// ModeChange counts one applied MRS mode switch.
func (r *Registry) ModeChange() {
	if r == nil {
		return
	}
	r.modeChanges.Add(1)
}

// Quarantine counts rows demoted to 1x by the resilience policy.
func (r *Registry) Quarantine(rows int) {
	if r == nil {
		return
	}
	r.quarantines.Add(int64(rows))
}

// Violation counts one fresh integrity violation (ECC event).
func (r *Registry) Violation() {
	if r == nil {
		return
	}
	r.violations.Add(1)
}

// AddEngineCycles accumulates the run loop's engine accounting: stepped
// is the memory cycles executed one by one, skipped the cycles the
// event-driven engine replayed in closed form (0 for stepped runs).
// The sim layer pushes both once, at finish.
func (r *Registry) AddEngineCycles(stepped, skipped int64) {
	if r == nil {
		return
	}
	r.engineStepped.Add(stepped)
	r.engineSkipped.Add(skipped)
}

// Snapshot is a point-in-time copy of a registry's counters, exported as
// plain values for reports and tests. Every field derives from simulated
// cycles and command streams only; wall-clock values must never reach a
// Snapshot (the mcrlint determinism check enforces this).
type Snapshot struct {
	// Commands holds total counts per command class; PerBank the counts
	// per flattened bank id, one slice per class (nil when unsized).
	Commands map[string]int64
	PerBank  map[string][]int64

	RowHits      int64
	RowMisses    int64
	RowConflicts int64

	// Reads is the retired-read count; LatencyBoundsCycles/LatencyCounts
	// the fixed-bucket latency histogram (final bucket = overflow);
	// Stall the per-component latency attribution in memory cycles.
	Reads               int64
	LatencyBoundsCycles []int64
	LatencyCounts       []int64
	Stall               StallBreakdown

	RefreshDebtPeak int64
	ModeChanges     int64
	QuarantinedRows int64
	Violations      int64

	// EngineSteppedCycles/EngineSkippedCycles partition the run's memory
	// cycles by how the engine advanced them: stepped one by one, or
	// skipped (replayed in closed form by the event-driven engine). Both
	// are zero until the run finishes — mid-run checkpoints deliberately
	// carry no engine accounting, keeping snapshots byte-compatible
	// across engines.
	EngineSteppedCycles int64
	EngineSkippedCycles int64
}

// SkipRatio returns the fraction of simulated memory cycles the
// event-driven engine skipped (0 when the engine accounting is absent,
// e.g. a stepped run or a mid-run snapshot).
func (s *Snapshot) SkipRatio() float64 {
	if s == nil {
		return 0
	}
	total := s.EngineSteppedCycles + s.EngineSkippedCycles
	if total <= 0 {
		return 0
	}
	return float64(s.EngineSkippedCycles) / float64(total)
}

// Snapshot copies the counters out. Safe while increments continue
// (individual counters are read atomically; the snapshot as a whole is
// then only approximately simultaneous).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Commands:            make(map[string]int64, int(numCmds)),
		PerBank:             make(map[string][]int64, int(numCmds)),
		RowHits:             r.rowHits.Load(),
		RowMisses:           r.rowMisses.Load(),
		RowConflicts:        r.rowConflicts.Load(),
		Reads:               r.reads.Load(),
		LatencyBoundsCycles: append([]int64(nil), latencyBoundsCycles[:]...),
		LatencyCounts:       make([]int64, NumLatencyBuckets),
		RefreshDebtPeak:     r.refreshDebtPeak.Load(),
		ModeChanges:         r.modeChanges.Load(),
		QuarantinedRows:     r.quarantines.Load(),
		Violations:          r.violations.Load(),
		EngineSteppedCycles: r.engineStepped.Load(),
		EngineSkippedCycles: r.engineSkipped.Load(),
	}
	for c := Cmd(0); c < numCmds; c++ {
		var total int64
		var banks []int64
		if r.banks > 0 {
			banks = make([]int64, r.banks)
		}
		for b := 0; b < r.banks; b++ {
			v := atomic.LoadInt64(&r.perBank[int(c)*r.banks+b])
			banks[b] = v
			total += v
		}
		s.Commands[c.String()] = total
		if banks != nil {
			s.PerBank[c.String()] = banks
		}
	}
	for i := range r.latency {
		s.LatencyCounts[i] = r.latency[i].Load()
	}
	for c := range r.stall {
		s.Stall[c] = r.stall[c].Load()
	}
	return s
}

// ImportSnapshot overwrites the registry's counters with a previously
// exported snapshot, so a run restored from a checkpoint continues
// accumulating where the interrupted run left off. It sets (not adds)
// every counter; call it at setup, never concurrently with increments.
// A nil receiver or snapshot is a no-op.
func (r *Registry) ImportSnapshot(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	if n := len(s.LatencyCounts); n > 0 && n != NumLatencyBuckets {
		return // bucket layout from a different build: nothing sane to import
	}
	r.rowHits.Store(s.RowHits)
	r.rowMisses.Store(s.RowMisses)
	r.rowConflicts.Store(s.RowConflicts)
	r.reads.Store(s.Reads)
	r.refreshDebtPeak.Store(s.RefreshDebtPeak)
	r.modeChanges.Store(s.ModeChanges)
	r.quarantines.Store(s.QuarantinedRows)
	r.violations.Store(s.Violations)
	r.engineStepped.Store(s.EngineSteppedCycles)
	r.engineSkipped.Store(s.EngineSkippedCycles)
	for i := range r.latency {
		var v int64
		if i < len(s.LatencyCounts) {
			v = s.LatencyCounts[i]
		}
		r.latency[i].Store(v)
	}
	for c := range r.stall {
		r.stall[c].Store(s.Stall[c])
	}
	banks := 0
	for c := Cmd(0); c < numCmds; c++ {
		if n := len(s.PerBank[c.String()]); n > banks {
			banks = n
		}
	}
	r.EnsureBanks(banks)
	for c := Cmd(0); c < numCmds; c++ {
		per := s.PerBank[c.String()]
		for b := 0; b < r.banks; b++ {
			var v int64
			if b < len(per) {
				v = per[b]
			}
			atomic.StoreInt64(&r.perBank[int(c)*r.banks+b], v)
		}
	}
}
