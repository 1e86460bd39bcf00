// Package mech defines the pluggable latency-mechanism seam of the DRAM
// model: a Mechanism owns every per-row policy decision of a device —
// timing-class derivation (RowParams), row-to-gang mapping, refresh
// planning and skip eligibility, restore-level classes, mode-register
// transitions and quarantine demotion — while the dram.Device keeps only
// the scheme-agnostic JEDEC state machines (banks, ranks, buses).
//
// Five backends implement the interface: the paper's MCR-DRAM (which
// also covers conventional DRAM with the mode off), and four related-work
// comparators — TL-DRAM (near/far bitline segments), NUAT (charge-aware
// tRCD), CROW (hot rows copied into spare clone rows) and CLR-DRAM
// (dynamic capacity/latency row coupling).
package mech

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/timing"
)

// ErrNoModes is returned (wrapped) by SetMode on backends without a mode
// register: only MCR devices have MRS-programmable modes, so a mode
// change on TL/NUAT/CROW/CLR is a typed error, never a stuck drain.
var ErrNoModes = errors.New("mechanism has no MCR mode register")

// ErrUnknownMechanism is returned (wrapped) when a mechanism is selected
// by a name no backend registers — a typo surfaces as a typed error
// before any simulation state is built.
var ErrUnknownMechanism = errors.New("unknown mechanism")

// Stats counts mechanism-level policy events; backends leave fields they
// do not model at zero.
type Stats struct {
	// FastActivates counts ACTs served with better-than-baseline timing
	// (MCR-band rows, TL near rows, fresh NUAT bins, CROW-copied rows,
	// CLR-coupled rows).
	FastActivates int64
	// Copies counts CROW row-copy operations; CopyCycles the cycles those
	// copies (or CLR conversions) added to the command stream.
	Copies     int64
	CopyCycles int64
	// Conversions counts CLR max-capacity -> high-performance couplings;
	// Reversions counts CROW/CLR rows reverted by quarantine.
	Conversions int64
	Reversions  int64
	// CapacityLossRows is the rows of capacity the mechanism has traded
	// away so far (CROW spare rows consumed, CLR donor rows coupled).
	CapacityLossRows int64
}

// Mechanism is one latency scheme plugged into a dram.Device. All
// methods are called synchronously from the device's command path and
// must be deterministic.
type Mechanism interface {
	// Name identifies the backend ("mcr", "tldram", "nuat", "crow", "clr").
	Name() string
	// Config returns the (possibly mode-updated) device configuration.
	Config() Config
	// Timings returns the resolved per-class timing sets; the device
	// re-reads them after SetMode.
	Timings() Timings

	// RowParams returns the timing parameters governing a row and whether
	// the row lies in an MCR band (clone-row gang).
	RowParams(row int) (*timing.Params, bool)
	// SameGang reports whether two distinct rows share latched data (MCR
	// clone gangs, CLR coupled pairs) so a row hit on one serves the other.
	SameGang(a, b int) bool
	// MaxGang bounds SameGang: a power of two such that rows sharing
	// latched data lie in one MaxGang-aligned block of adjacent rows (1
	// when the backend never gangs). The device screens row-hit tests
	// with it and re-reads it after SetMode and ImportState.
	MaxGang() int
	// GangK returns the number of wordlines that fire for the row (1 when
	// un-ganged).
	GangK(row int) int
	// InMCR reports whether the row lies in an MCR band.
	InMCR(row int) bool
	// CloneRows lists the wordlines that fire for a row (itself alone when
	// un-ganged): always the GangK(row) adjacent rows from row &^ (GangK-1),
	// which is how the integrity checker walks them without the slice.
	CloneRows(row int) []int

	// MEff is the effective refreshes-per-window class governing the row's
	// restore level (1 = full restore); RefreshMEff the restore class of a
	// REF on rows of gang size k with band skip setting m.
	MEff(row int) int
	RefreshMEff(k, m int) int
	// RefreshPlan maps REF command number counter to the rows it touches
	// and whether the scheme's skip schedule elides it.
	RefreshPlan(counter int) mcr.LayoutRefreshOp
	// NoteRefresh informs the backend of refresh progress (NUAT's
	// freshness bins); most backends ignore it.
	NoteRefresh(counter int)

	// OnActivate runs the backend's per-activation policy (CROW copying,
	// CLR conversion, fast-activate accounting). It returns extra cycles
	// the activation must absorb (copy/convert cost) and, when emit is
	// true, an event for the device to trace at the activation site.
	OnActivate(row int, now int64) (extra int64, ev obs.EventKind, emit bool)

	// SupportsModeChange reports whether SetMode can ever succeed; the
	// controller consults it before starting an MRS drain.
	SupportsModeChange() bool
	// SetMode reprograms the MCR mode register and rebuilds the timing
	// classes; backends without modes return an error wrapping ErrNoModes.
	SetMode(mode mcr.Mode, now int64) error
	// ModeGeneration exposes the mode-register write counter (0 when the
	// backend has no register).
	ModeGeneration() int

	// Quarantine demotes a row (and whatever structure it shares —
	// clone gang, coupled pair) to safe baseline operation, returning the
	// count of newly demoted rows. IsQuarantined and QuarantinedRows
	// expose the demoted set (sorted).
	Quarantine(row int) int
	IsQuarantined(row int) bool
	QuarantinedRows() []int

	// Stats returns a copy of the mechanism's policy counters.
	Stats() Stats

	// ExportState flattens the backend's mutable policy state for a
	// checkpoint; ImportState reinstates it on a freshly built backend of
	// the same configuration (see state.go). After ImportState the device
	// must re-read Config and Timings — an imported MCR mode switch
	// rebuilds both.
	ExportState() State
	ImportState(st State) error
}

// New selects and builds the backend a configuration asks for: exactly
// one comparator (TL/NUAT/CROW/CLR) when set, the MCR backend otherwise
// (which also models conventional DRAM when the mode is off).
func New(cfg Config) (Mechanism, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case cfg.TL != nil:
		return newTL(cfg)
	case cfg.NUAT != nil:
		return newNUAT(cfg)
	case cfg.CROW != nil:
		return newCROW(cfg)
	case cfg.CLR != nil:
		return newCLR(cfg)
	default:
		return newMCR(cfg)
	}
}

// base carries the state every backend shares: the validated config, the
// resolved timing classes, the (possibly empty) MCR layout machinery
// driving refresh planning, and the quarantine set.
type base struct {
	cfg   Config
	tim   Timings
	lgen  *mcr.LayoutGenerator
	sched *mcr.LayoutScheduler
	// quarantined rows are demoted to conventional 1x timing and full
	// restore; nil until the first Quarantine call. Survives SetMode.
	quarantined map[int]bool
	stats       Stats
}

// newBase resolves the shared state from a validated configuration.
func newBase(cfg Config) (base, error) {
	tim, err := ResolveTimings(cfg)
	if err != nil {
		return base{}, err
	}
	lgen, err := mcr.NewLayoutGenerator(cfg.EffectiveLayout(), cfg.Geom.RowsPerSubarray())
	if err != nil {
		return base{}, err
	}
	sched, err := mcr.NewLayoutScheduler(lgen, cfg.Wiring, cfg.Geom.Rows)
	if err != nil {
		return base{}, err
	}
	return base{cfg: cfg, tim: tim, lgen: lgen, sched: sched}, nil
}

func (b *base) Config() Config   { return b.cfg }
func (b *base) Timings() Timings { return b.tim }
func (b *base) Stats() Stats     { return b.stats }

// SameGang/GangK/InMCR answer per-command row classification queries
// straight from the layout generator's lookup tables.
func (b *base) SameGang(x, y int) bool { return b.lgen.SameMCR(x, y) }

// MaxGang is the widest band's K: an MCR is K adjacent rows at
// row &^ (K-1) (paper Sec. 3).
func (b *base) MaxGang() int { return b.lgen.Layout().MaxK() }

func (b *base) GangK(row int) int { return b.lgen.KAt(row) }

func (b *base) InMCR(row int) bool { return b.lgen.InMCR(row) }
func (b *base) CloneRows(row int) []int {
	return b.lgen.CloneRows(row)
}

// MEff mirrors the historical device policy: full restore unless
// Early-Precharge is on, in which case the band's K — reduced to the
// band's M when Refresh-Skipping is honored. Quarantined rows always
// restore fully.
func (b *base) MEff(row int) int {
	if !b.cfg.Mech.EarlyPrecharge || b.quarantined[row] {
		return 1
	}
	if b.cfg.Mech.RefreshSkipping {
		return b.lgen.MAt(row)
	}
	return b.lgen.KAt(row)
}

// RefreshMEff returns the restore class of a REF on rows of gang size k
// with band skip setting m.
func (b *base) RefreshMEff(k, m int) int {
	if k == 1 || !b.cfg.Mech.FastRefresh || !b.cfg.Mech.EarlyPrecharge {
		return 1
	}
	if b.cfg.Mech.RefreshSkipping {
		return m
	}
	return k
}

func (b *base) RefreshPlan(counter int) mcr.LayoutRefreshOp { return b.sched.Plan(counter) }

func (b *base) NoteRefresh(counter int) {}

func (b *base) OnActivate(row int, now int64) (int64, obs.EventKind, bool) {
	return 0, 0, false
}

func (b *base) SupportsModeChange() bool { return false }
func (b *base) ModeGeneration() int      { return 0 }

// noModes builds the typed SetMode error of a mode-less backend.
func noModes(name string) error {
	return fmt.Errorf("mech: %s: %w", name, ErrNoModes)
}

// Quarantine demotes a row and its whole shared structure (clone gang;
// a lone row otherwise), returning how many rows were newly demoted.
func (b *base) Quarantine(row int) int {
	return b.quarantineRows(b.lgen.CloneRows(row))
}

// quarantineRows marks the given rows, returning the newly added count.
func (b *base) quarantineRows(rows []int) int {
	if b.quarantined == nil {
		b.quarantined = make(map[int]bool)
	}
	added := 0
	for _, r := range rows {
		if !b.quarantined[r] {
			b.quarantined[r] = true
			added++
		}
	}
	return added
}

func (b *base) IsQuarantined(row int) bool { return b.quarantined[row] }

// QuarantinedRows returns the demoted rows in ascending order.
func (b *base) QuarantinedRows() []int {
	out := make([]int, 0, len(b.quarantined))
	for r := range b.quarantined { //mcrlint:allow determinism sorted immediately below, order-free
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
