// The device model proper: banks, ranks and the shared data bus. Every
// per-row policy decision — timing classes, gang mapping, refresh
// planning, mode transitions, quarantine — is delegated to the single
// mech.Mechanism backend the configuration selected.

package dram

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/timing"
)

// bank holds the per-bank scheduling state: the open row and the earliest
// cycle each command class may next issue. Its fields are exported
// because the live value is also the checkpointed one (State.Banks): gob
// only carries exported fields.
type bank struct {
	OpenRow   int // -1 when precharged
	OpenMCR   bool
	NextAct   int64
	NextRead  int64
	NextWrite int64
	NextPre   int64
}

// rank holds rank-level constraint state (checkpointed as State.Ranks).
type rank struct {
	ActWindow   [4]int64 // times of the last four ACTs, for tFAW
	ActWindowAt int32
	// openBanks counts the rank's banks with a row open, so that RankBusy
	// is not a scan. A function of Banks, hence unexported: no State
	// carries it (gob could not), and ImportState counts again. It shares
	// a word with the window cursor so that the struct is no larger for
	// it: what NewSim allocates is the benchmark's setup_s.
	openBanks        int32
	NextAct          int64 // tRRD gate
	NextReadOK       int64 // write-to-read turnaround (tWTR)
	RefreshBusyUntil int64
}

// Stats counts device-level events.
type Stats struct {
	Activates        int64
	Reads            int64
	Writes           int64
	Precharges       int64
	Refreshes        int64
	SkippedRefreshes int64
	MCRActivates     int64
	MCRRefreshes     int64
}

// Device is one DRAM memory system (all channels) running exactly one
// latency-mechanism backend.
type Device struct {
	cfg Config
	tim Timings
	// mech owns every scheme-specific policy; the device keeps only the
	// JEDEC state machines below.
	mech mech.Mechanism

	banks []bank // [channel][rank][bank] flattened
	ranks []rank // [channel][rank] flattened

	// The geometry is all powers of two, so a flattened bank index (what
	// the scheduler caches per request) splits by shifting: its rank entry
	// is bank >> bankShift, that one's channel a further >> rankShift.
	bankShift, rankShift uint8
	// gangMask is mech.MaxGang()-1: rows that differ above it share no
	// latched data, whatever the backend (see IsRowHitAt). The four are
	// narrow so that they share a word: what NewSim allocates is the
	// benchmark's setup_s.
	gangMask int32
	// noting caches whether obs, tr or observer is attached: note's one
	// branch.
	noting bool

	// Channel-level constraint state.
	busBusyUntil []int64 // data bus per channel
	busOwner     []int   // rank that last used the bus, for tRTRS
	nextCol      []int64 // tCCD gate per channel

	stats Stats

	// obs, tr and observer, when non-nil, receive per-bank command counts,
	// cycle-domain command events and the command records (see note).
	obs      *obs.Registry
	tr       *obs.Tracer
	observer Observer
}

// New builds a device from the configuration, selecting the mechanism
// backend it asks for (MCR by default; exactly one of TL/NUAT/CLR
// otherwise — conflicting selections are rejected here).
func New(cfg Config) (*Device, error) {
	m, err := mech.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &Device{
		mech:         m,
		banks:        make([]bank, cfg.Geom.Channels*cfg.Geom.Ranks*cfg.Geom.Banks),
		ranks:        make([]rank, cfg.Geom.Channels*cfg.Geom.Ranks),
		busBusyUntil: make([]int64, cfg.Geom.Channels),
		busOwner:     make([]int, cfg.Geom.Channels),
		nextCol:      make([]int64, cfg.Geom.Channels),
		bankShift:    log2(cfg.Geom.Banks),
		rankShift:    log2(cfg.Geom.Ranks),
	}
	d.readMech()
	for i := range d.banks {
		d.banks[i].OpenRow = -1
	}
	for i := range d.ranks {
		for j := range d.ranks[i].ActWindow {
			d.ranks[i].ActWindow[j] = -1 << 40 // far past: empty tFAW window
		}
	}
	for i := range d.busOwner {
		d.busOwner[i] = -1
	}
	return d, nil
}

// log2 of a geometry dimension, which Geometry.Validate (behind mech.New)
// made a positive power of two.
func log2(v int) uint8 {
	return uint8(bits.TrailingZeros(uint(v)))
}

// readMech reads what the device caches of its backend: at construction,
// and again after an MRS (issued, or replayed by ImportState) rebuilt it.
func (d *Device) readMech() {
	d.cfg = d.mech.Config()
	d.tim = d.mech.Timings()
	d.gangMask = int32(d.mech.MaxGang() - 1)
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Timings returns the resolved per-class timing parameters.
func (d *Device) Timings() Timings { return d.tim }

// MechanismName identifies the active backend ("mcr", "tldram", ...).
func (d *Device) MechanismName() string { return d.mech.Name() }

// MechStats returns the backend's policy counters (conversions,
// fast activates, capacity traded).
func (d *Device) MechStats() mech.Stats { return d.mech.Stats() }

// mcrMech returns the MCR backend, or nil when another scheme is active.
func (d *Device) mcrMech() *mech.MCR {
	m, _ := d.mech.(*mech.MCR)
	return m
}

// Generator exposes the MCR generator, the row classifier of the current
// mode or combined layout; nil for non-MCR backends (use GangK/InMCR,
// which every backend answers).
func (d *Device) Generator() *mcr.Generator {
	if m := d.mcrMech(); m != nil {
		return m.Generator()
	}
	return nil
}

// Stats returns a copy of the event counters.
func (d *Device) Stats() Stats { return d.stats }

// SetObservability attaches a metrics registry and an event tracer to
// the command path (either may be nil — recording calls on nil
// receivers are near-free no-ops).
func (d *Device) SetObservability(reg *obs.Registry, tr *obs.Tracer) {
	d.obs, d.tr = reg, tr
	d.noting = d.obs != nil || d.tr != nil || d.observer != nil
}

// RefreshBusyUntil returns the cycle the rank's in-flight refresh ends
// (a refresh is in flight at cycle t iff t is below it). The controller's
// stall accounter classifies blocked command slots as tRFC stalls while
// it lies ahead, and wakes at it to reclassify them.
func (d *Device) RefreshBusyUntil(ch, rankID int) int64 {
	return d.ranks[ch*d.cfg.Geom.Ranks+rankID].RefreshBusyUntil
}

// RowParams returns the timing parameter set governing a row and whether
// the row lies in an MCR band (always false for the comparator schemes,
// whose fast classes are not clone-row bands).
func (d *Device) RowParams(row int) (*timing.Params, bool) {
	return d.mech.RowParams(row)
}

// OpenRow returns the open row of the bank holding addr, or -1.
func (d *Device) OpenRow(a core.Address) int { return d.banks[a.BankID(d.cfg.Geom)].OpenRow }

// OpenRowAt is OpenRow for a flattened bank index (Address.BankID): the
// scheduler walks queues and banks every cycle and caches the index
// instead of re-deriving it from an address.
func (d *Device) OpenRowAt(bank int) int { return d.banks[bank].OpenRow }

// IsRowHitAt reports whether a request to a row of a flattened bank index
// (Address.BankID) would hit the open row — treating rows that latch
// shared data (an MCR's clone rows, a CLR coupled pair) as the same
// logical row, since activating any of them latched the same data. Only
// the rare pair of distinct rows inside one aligned MaxGang block reaches
// the backend: every scheme gangs adjacent, aligned rows (an MCR is K rows
// at row &^ (K-1), a CLR pair sits at row &^ 1), so rows that differ
// above the gang mask cannot share latched data.
func (d *Device) IsRowHitAt(bank, row int) bool {
	open := d.banks[bank].OpenRow
	if open == row {
		return open >= 0
	}
	if open < 0 || (open^row)&^int(d.gangMask) != 0 {
		return false
	}
	return d.mech.SameGang(open, row)
}

// GangK returns the number of wordlines that fire for the row (1 when
// un-ganged) — safe on every backend.
func (d *Device) GangK(row int) int { return d.mech.GangK(row) }

// SupportsModeChange reports whether the active backend has an
// MRS-programmable mode register; the controller consults it before
// starting a drain.
func (d *Device) SupportsModeChange() bool { return d.mech.SupportsModeChange() }

// RankBusy reports whether a rank is doing work at the given cycle: any
// bank open, or a refresh in flight. The power model uses it to classify
// background cycles.
func (d *Device) RankBusy(ch, rankID int, now int64) bool {
	rk := &d.ranks[ch*d.cfg.Geom.Ranks+rankID]
	return rk.openBanks > 0 || rk.RefreshBusyUntil > now
}
