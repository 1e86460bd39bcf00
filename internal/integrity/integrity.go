// Package integrity is a retention-safety checker for the DRAM device: it
// shadows the command stream and verifies the property the whole MCR-DRAM
// proposal rests on — that no cell's stored charge ever droops below the
// data-retention floor before its next refresh or activation.
//
// The model follows the paper's Sec. 3.3 accounting. A cell restored to
// level L (fraction of full charge, 1.0 = fully restored) loses
// leakPerMs * t of charge over t milliseconds; data survives while
// L - leakPerMs*t >= floor, where floor = 1 - leakPerMs*retention is the
// level a *fully restored* cell reaches after one full retention window.
// Early-Precharge is safe exactly when the restore level sacrificed is no
// more than the leakage budget reclaimed by the shorter refresh interval —
// the checker verifies this numerically, event by event, instead of
// trusting the derivation.
//
// Retention is configurable so tests can scale a 64 ms window down to
// simulation-sized runs and actually exercise wraparounds; the charge lost
// per window is fixed at the paper's Fig 1 example.
package integrity

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/dram"
	"repro/internal/timing"
)

// leakPerWindow is the charge fraction a worst-case cell loses over one
// full retention window (the paper's Fig 1 example).
const leakPerWindow = 0.2

// Config sets the checker's physical assumptions.
type Config struct {
	// RetentionMs is the worst-case cell retention window (64 by default,
	// 32 for the JEDEC high-temperature range).
	RetentionMs float64
}

// DefaultConfig returns the paper's normal-temperature assumptions.
func DefaultConfig() Config {
	return Config{RetentionMs: timing.RetentionWindowMs}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.RetentionMs <= 0 {
		return fmt.Errorf("integrity: RetentionMs must be positive, got %g", c.RetentionMs)
	}
	return nil
}

// ViolationKind distinguishes how a cell failed.
type ViolationKind int

// Violation kinds.
const (
	// KindRetention: the stored charge drooped below the retention floor
	// before the next refresh or activation.
	KindRetention ViolationKind = iota
)

// String names the kind.
func (k ViolationKind) String() string {
	if k == KindRetention {
		return "retention"
	}
	return fmt.Sprintf("ViolationKind(%d)", int(k))
}

// Violation records one detected retention failure.
type Violation struct {
	Kind      ViolationKind
	Bank      int // flattened bank id
	Row       int
	AtMs      float64 // when the charge crossed the floor
	Level     float64 // restore level at the last charge event
	SinceMs   float64 // time since that event
	FloorFrac float64
	// K is the clone-gang width of the row when it failed (1 outside MCR
	// bands or for quarantined rows); Mode is the device mode string at
	// that time (e.g. "mode [4/4x/100%reg]"). Both are diagnostic context
	// for degradation decisions and logs.
	K    int
	Mode string
}

// Error renders the violation.
func (v Violation) Error() string {
	mode := v.Mode
	if mode == "" {
		mode = "mode [?]"
	}
	k := v.K
	if k < 1 {
		k = 1
	}
	return fmt.Sprintf("integrity: bank %d row %d lost data at %.3f ms (level %.4f, %.3f ms since restore, floor %.4f, K=%d, %s)",
		v.Bank, v.Row, v.AtMs, v.Level, v.SinceMs, v.FloorFrac, k, mode)
}

// The shadow is one ordered, pointer-free structure: per bank an index by
// row>>pageShift into a slab of pageRows-row pages, grown a chunk at a time
// as rows are first restored. An observed command is a few loads, memory
// follows the rows a run touches, and a walk in index order is a walk in
// (bank, row) order.
const (
	pageShift  = 4
	pageRows   = 1 << pageShift
	chunkPages = 64 // 16 KiB
)

// cell is the last charge event of one row: its time and the restore level
// written then (fraction of full, positive); level 0 marks a row never
// written or refreshed.
type cell struct{ atMs, level float64 }

// Cloner yields the width K of the gang a row fires in: the K adjacent
// wordlines from row &^ (K-1). dram.Device is one, answering from its
// current mechanism (for MCR, its mcr.Generator's KAt).
type Cloner interface{ GangK(row int) int }

// FaultModel supplies injected cell weaknesses to the checker. The
// interface lives here (not in internal/fault) so integrity stays
// import-cycle-free; *fault.Model implements it.
type FaultModel interface {
	// LeakMultiplier scales the nominal leakage of a row ganged k-wide
	// over [fromMs, toMs]; 1 means nominal.
	LeakMultiplier(row, k int, fromMs, toMs float64) float64
}

// Checker shadows one bank group's rows.
type Checker struct {
	cfg Config
	gen Cloner
	// index[bank][row>>pageShift] is 1 + the number of the page holding the
	// row, 0 while no row of that page has a charge event; slab holds the
	// pages, chunkPages to a chunk; live counts the rows that have an event.
	index       [][]int32
	slab        [][][pageRows]cell
	pages, live int32
	// banks and rows bound what ImportState accepts; 0 is unbounded.
	banks, rows int32
	found       []Violation
	// floor is the minimum survivable charge level: what a fully restored
	// cell decays to over one full window.
	floor float64
	// faults, when non-nil, injects cell weaknesses into the leak model.
	faults FaultModel
	// modeLabel/kOf supply MCR context for violations; defaults report
	// "" / K=1 until SetModeContext is called.
	modeLabel func() string
	kOf       func(row int) int
}

// New builds a checker; gen supplies the MCR geometry so clone rows share
// charge events.
func New(cfg Config, gen Cloner) (*Checker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil || gen == (*dram.Device)(nil) {
		return nil, fmt.Errorf("integrity: checker needs a generator")
	}
	return &Checker{cfg: cfg, gen: gen, floor: 1 - leakPerWindow}, nil
}

// SetFaults installs a fault model; nil (the default) means every cell is
// nominal. Callers must not pass a typed-nil pointer.
func (c *Checker) SetFaults(fm FaultModel) { c.faults = fm }

// SetModeContext installs the providers of MCR context recorded on each
// violation: label yields the current device mode string, kOf the current
// clone-gang width of a row. Either may be nil to keep the default
// ("" / K=1).
func (c *Checker) SetModeContext(label func() string, kOf func(row int) int) {
	c.modeLabel, c.kOf = label, kOf
}

// kFor returns the clone-gang width used for fault queries and context.
func (c *Checker) kFor(row int) int {
	if c.kOf == nil {
		return 1
	}
	return max(c.kOf(row), 1)
}

// mode returns the current mode label ("" when no provider is set).
func (c *Checker) mode() string {
	if c.modeLabel == nil {
		return ""
	}
	return c.modeLabel()
}

// gang returns the first wordline and the width of the block row fires in.
func (c *Checker) gang(row int) (base, k int) {
	k = max(c.gen.GangK(row), 1)
	return row &^ (k - 1), k
}

// page returns the page index numbers at (at >= 1).
func (c *Checker) page(at int32) *[pageRows]cell {
	return &c.slab[(at-1)/chunkPages][(at-1)%chunkPages]
}

// restore records a charge event on one row, making room on the first for
// its page and its bank's index (whole when rows is known, else doubling).
func (c *Checker) restore(bank, row int, level, tMs float64) {
	for bank >= len(c.index) {
		c.index = append(c.index, nil)
	}
	idx, p := c.index[bank], row>>pageShift
	if p >= len(idx) {
		idx = append(make([]int32, 0, max(p+1, 2*len(idx), (int(c.rows)+pageRows-1)>>pageShift)), idx...)
		idx = idx[:cap(idx)]
		c.index[bank] = idx
	}
	if idx[p] == 0 {
		if c.pages%chunkPages == 0 {
			c.slab = append(c.slab, make([][pageRows]cell, chunkPages))
		}
		c.pages++
		idx[p] = c.pages
	}
	cl := &c.page(idx[p])[row&(pageRows-1)]
	if cl.level == 0 {
		c.live++
	}
	cl.atMs, cl.level = tMs, level
}

// each visits every row that has a charge event in (bank, row) order.
func (c *Checker) each(visit func(bank, row int, cl cell)) {
	for bank, idx := range c.index {
		for p, at := range idx {
			if at == 0 {
				continue
			}
			for i, cl := range c.page(at) {
				if cl.level != 0 {
					visit(bank, p<<pageShift|i, cl)
				}
			}
		}
	}
}

// check verifies a row still holds data at time t, recording a violation
// otherwise. A row that was never written has nothing to lose.
func (c *Checker) check(bank, row int, tMs float64) {
	if bank < len(c.index) {
		if idx, p := c.index[bank], row>>pageShift; p < len(idx) && idx[p] != 0 {
			if cl := c.page(idx[p])[row&(pageRows-1)]; cl.level != 0 {
				c.checkCell(bank, row, cl, tMs)
			}
		}
	}
}

// checkCell applies the leak model to one charge event: the nominal leak,
// scaled by the fault model's multiplier for the row (1 without a model).
func (c *Checker) checkCell(bank, row int, cl cell, tMs float64) {
	leakRate := leakPerWindow / c.cfg.RetentionMs
	if c.faults != nil {
		leakRate *= c.faults.LeakMultiplier(row, c.kFor(row), cl.atMs, tMs)
	}
	if level := cl.level - leakRate*(tMs-cl.atMs); level < c.floor-1e-12 {
		c.found = append(c.found, Violation{
			Kind: KindRetention, Bank: bank, Row: row, AtMs: tMs,
			Level: cl.level, SinceMs: tMs - cl.atMs, FloorFrac: c.floor,
			K: c.kFor(row), Mode: c.mode(),
		})
	}
}

// CheckActivate verifies the cells of a row (and its clones) still hold
// data at activation time, without recharging them; pair it with
// RecordRestore at precharge time.
func (c *Checker) CheckActivate(bank, row int, tMs float64) {
	base, k := c.gang(row)
	for r := base; r < base+k; r++ {
		c.check(bank, r, tMs)
	}
}

// RecordRestore notes that a row (and its clones) was recharged to the
// given level (positive) at time t (precharge or refresh completion).
func (c *Checker) RecordRestore(bank, row int, restoreLevel, tMs float64) {
	base, k := c.gang(row)
	for r := base; r < base+k; r++ {
		c.restore(bank, r, restoreLevel, tMs)
	}
}

// RecordActivate notes an activation of a row (and its clones) completing
// with the given restore level at time t. The level is what the device's
// tRAS class guarantees: 1.0 for a full restore, less under
// Early-Precharge. Activation first *checks* the cells still held data.
func (c *Checker) RecordActivate(bank, row int, restoreLevel, tMs float64) {
	c.CheckActivate(bank, row, tMs)
	c.RecordRestore(bank, row, restoreLevel, tMs)
}

// RecordRefresh notes a refresh of a row (and clones) restoring to the
// given level at time t.
func (c *Checker) RecordRefresh(bank, row int, restoreLevel, tMs float64) {
	c.RecordActivate(bank, row, restoreLevel, tMs)
}

// Sweep checks every tracked row at time t (call at end of simulation).
// Rows are visited in (bank, row) order so the violations it appends land
// deterministically — Violations() order is part of the Result parity
// contract and indexes the resilience policy's consumption cursor.
func (c *Checker) Sweep(tMs float64) {
	c.each(func(bank, row int, cl cell) { c.checkCell(bank, row, cl, tMs) })
}

// Violations returns everything found so far.
func (c *Checker) Violations() []Violation { return c.found }

// ViolationCount returns the number of violations found so far; cheaper
// than Violations for polling.
func (c *Checker) ViolationCount() int { return len(c.found) }

// Ok reports whether the schedule has been retention-safe.
func (c *Checker) Ok() bool { return len(c.found) == 0 }

// RowSnapshot is the checkpointed charge state of one shadowed row.
type RowSnapshot struct {
	Bank, Row int
	AtMs      float64
	Level     float64
}

// State is the checkpointable state of a checker: every shadowed row's
// last charge event (by bank then row, packed) and the violations found so
// far (in detection order — downstream cursors index it).
type State struct {
	Rows  RowSet
	Found []Violation
}

// ExportState copies the checker's mutable state out for a checkpoint.
func (c *Checker) ExportState() State {
	st := State{Rows: make(RowSet, 0, 16+6*int(c.live)), Found: slices.Clone(c.found)}
	var prev RowSnapshot
	c.each(func(bank, row int, cl cell) {
		r := RowSnapshot{Bank: bank, Row: row, AtMs: cl.atMs, Level: cl.level}
		st.Rows = st.Rows.add(prev, r)
		prev = r
	})
	return st
}

// compareKeys orders (bank, row) pairs.
func compareKeys(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) }

// ImportState overwrites the checker's mutable state with a checkpointed
// one; configuration, fault model and mode context stay untouched. The
// state is checked first (an index, unlike a map, can be driven out of
// range): inside the device, rows strictly ascending, levels in (0, 1],
// finite times.
func (c *Checker) ImportState(st State) error {
	rows, err := st.Rows.Unpack()
	if err != nil {
		return err
	}
	prev := [2]int{-1, -1}
	for _, r := range rows {
		key := [2]int{r.Bank, r.Row}
		inside := r.Bank >= 0 && r.Row >= 0 && (c.banks == 0 || r.Bank < int(c.banks)) && (c.rows == 0 || r.Row < int(c.rows))
		if !inside || compareKeys(prev, key) >= 0 || !(r.Level > 0 && r.Level <= 1) || math.IsNaN(r.AtMs) || math.IsInf(r.AtMs, 0) {
			return fmt.Errorf("integrity: checkpointed row %+v is outside the device, out of order or not a charge event", r)
		}
		prev = key
	}
	c.index, c.slab, c.pages, c.live = nil, nil, 0, 0
	for _, r := range rows {
		c.restore(r.Bank, r.Row, r.Level, r.AtMs)
	}
	c.found = slices.Clone(st.Found)
	return nil
}

// RowSet is a checker's shadowed rows, packed by hand (gob would spend a
// reflective struct encode and some forty bytes on each): per row a varint
// of (row - previous row)<<3 | flags, then one for each flag set — 1: the
// bank delta, 2: the time's bits XOR the previous row's, 4: the level's
// likewise — so the clones of a gang, restored together, take a byte each.
// The first follows the zero RowSnapshot; signed deltas round-trip any order.
type RowSet []byte

// add appends r, which follows prev.
func (rs RowSet) add(prev, r RowSnapshot) RowSet {
	bits, flags := math.Float64bits, int64(0)
	d := [3]int64{int64(r.Bank - prev.Bank), int64(bits(r.AtMs) ^ bits(prev.AtMs)), int64(bits(r.Level) ^ bits(prev.Level))}
	for i, v := range d {
		if v != 0 {
			flags |= 1 << i
		}
	}
	rs = binary.AppendVarint(rs, int64(r.Row-prev.Row)<<3|flags)
	for _, v := range d {
		if v != 0 {
			rs = binary.AppendVarint(rs, v)
		}
	}
	return rs
}

// PackRows packs rows in the order given.
func PackRows(rows []RowSnapshot) (rs RowSet) {
	var prev RowSnapshot
	for _, r := range rows {
		rs, prev = rs.add(prev, r), r
	}
	return rs
}

// maxPrealloc is the most rows Unpack reserves before the bytes have shown
// they hold them (past it the rows grow by append).
const maxPrealloc = 1 << 16

// Unpack returns the rows, or an error when the bytes end inside a record.
func (rs RowSet) Unpack() ([]RowSnapshot, error) {
	rows, r, ok := make([]RowSnapshot, 0, min(len(rs)/4, maxPrealloc)), RowSnapshot{}, true
	for len(rs) > 0 && ok {
		var f [4]int64 // (row delta)<<3 | flags, then the delta of each flag set
		for i := range f {
			if i == 0 || f[0]>>(i-1)&1 != 0 {
				v, w := binary.Varint(rs)
				f[i], ok, rs = v, ok && w > 0, rs[max(w, 0):]
			}
		}
		r = RowSnapshot{Bank: r.Bank + int(f[1]), Row: r.Row + int(f[0]>>3),
			AtMs:  math.Float64frombits(math.Float64bits(r.AtMs) ^ uint64(f[2])),
			Level: math.Float64frombits(math.Float64bits(r.Level) ^ uint64(f[3]))}
		rows = append(rows, r)
	}
	if !ok {
		return nil, errors.New("integrity: packed rows end inside a record")
	}
	return rows, nil
}

// RestoreLevelFor translates an M/Kx mode's Early-Precharge target into a
// restore level for the checker: the paper's rule is that a cell refreshed
// every RetentionMs/m may be restored to
//
//	1 - leakPerWindow*(1 - 1/m)
//
// which decays to exactly the floor after its (shorter) interval.
func RestoreLevelFor(m int) float64 {
	if m < 1 {
		m = 1
	}
	return 1 - leakPerWindow*(1-1/float64(m))
}
