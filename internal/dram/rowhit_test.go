package dram

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/mech"
)

// rowHitSweep opens, in turn, every row of the first two sub-arrays of one
// bank and asks IsRowHitAt about every row of the same range (their
// boundary and one row beyond each end included). The answer must be the
// definition — the open row itself, or a row the backend says shares its
// latched data — which is what the gang-mask screen in front of the
// backend call must never change. It returns how many hits were on a row
// other than the open one.
func rowHitSweep(t *testing.T, d *Device, now *int64) (gangHits int) {
	t.Helper()
	a := core.Address{Rank: 1, Bank: 3}
	bank := a.BankID(d.cfg.Geom)
	rows := 2 * d.cfg.Geom.RowsPerSubarray()
	for row := -1; row <= rows; row++ {
		if d.IsRowHitAt(bank, row) {
			t.Fatalf("closed bank: row %d hits", row)
		}
	}
	for open := 0; open < rows; open++ {
		a.Row = open
		*now, _ = d.EarliestActivate(a, *now)
		d.Activate(a, *now)
		for row := -1; row <= rows; row++ {
			want := open == row || d.mech.SameGang(open, row)
			if got := d.IsRowHitAt(bank, row); got != want {
				t.Fatalf("row %d open: IsRowHitAt(%d) = %v, the backend says %v", open, row, got, want)
			}
			if want && open != row {
				gangHits++
			}
		}
		*now, _ = d.EarliestPrecharge(a, *now)
		d.Precharge(a, *now)
	}
	return gangHits
}

// TestRowHitScreenIsExact sweeps every backend, the MCR one across a mode
// ladder (the screen's mask is re-read after each MRS) and on a combined
// layout (the mask is the wider band's, the narrower band must still
// answer per pair), and CLR as its pairs couple and after a quarantine
// uncouples the pair that is open.
func TestRowHitScreenIsExact(t *testing.T) {
	build := func(t *testing.T, mut func(*Config)) *Device {
		t.Helper()
		cfg := DefaultConfig(mcr.Off())
		if mut != nil {
			mut(&cfg)
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	subarray := core.SingleCoreGeometry().RowsPerSubarray()

	t.Run("mcr mode ladder", func(t *testing.T) {
		// Up first: a mask left at the narrower mode would reject real
		// siblings.
		d := build(t, func(c *Config) { c.Mode = mcrtest.Mode(2, 1, 0.25) })
		var now int64
		for _, step := range []struct {
			mode mcr.Mode
			want int // over two sub-arrays
		}{
			{mcrtest.Mode(2, 1, 0.25), subarray / 2},  // a quarter of the rows, one sibling each
			{mcrtest.Mode(4, 4, 1), 2 * subarray * 3}, // every row, three siblings each
			{mcrtest.Mode(2, 2, 0.5), subarray},
			{mcr.Off(), 0},
		} {
			if err := d.SetMode(step.mode, now); err != nil {
				t.Fatal(err)
			}
			if got := rowHitSweep(t, d, &now); got != step.want {
				t.Fatalf("%v: %d gang hits, want %d", step.mode, got, step.want)
			}
		}
	})

	t.Run("combined 4x+2x layout", func(t *testing.T) {
		d := layoutDevice(t)
		var now int64
		// A quarter of each sub-array in fours, a quarter in pairs.
		want := 2 * (subarray/4*3 + subarray/4*1)
		if got := rowHitSweep(t, d, &now); got != want {
			t.Fatalf("%d gang hits, want %d", got, want)
		}
	})

	t.Run("restored after an MRS", func(t *testing.T) {
		// ImportState replays the mode switch on a device built at the
		// original mode: the mask must follow.
		src := build(t, func(c *Config) { c.Mode = mcrtest.Mode(2, 2, 0.5) })
		if err := src.SetMode(mcrtest.Mode(4, 4, 1), 0); err != nil {
			t.Fatal(err)
		}
		d := build(t, func(c *Config) { c.Mode = mcrtest.Mode(2, 2, 0.5) })
		if err := d.ImportState(src.ExportState()); err != nil {
			t.Fatal(err)
		}
		var now int64
		if got, want := rowHitSweep(t, d, &now), 2*subarray*3; got != want {
			t.Fatalf("%d gang hits, want %d", got, want)
		}
	})

	for name, mut := range map[string]func(*Config){
		"tldram": func(c *Config) { tl := DefaultTLConfig(); c.TL = &tl },
		"nuat":   func(c *Config) { n := DefaultNUATConfig(); c.NUAT = &n },
		"crow":   func(c *Config) { cr := DefaultCROWConfig(); c.CROW = &cr },
	} {
		t.Run(name, func(t *testing.T) {
			d := build(t, mut)
			var now int64
			// Twice: the second pass meets whatever per-row state the
			// first one's activations left (CROW copies).
			for pass := 0; pass < 2; pass++ {
				if got := rowHitSweep(t, d, &now); got != 0 {
					t.Fatalf("pass %d: %d gang hits on a backend that never gangs", pass, got)
				}
			}
		})
	}

	t.Run("clr", func(t *testing.T) {
		lcfg := DefaultCLRConfig()
		d := build(t, func(c *Config) { c.CLR = &lcfg })
		clr := d.mech.(*mech.CLR)
		var now int64
		// Each sweep activates every row once: pairs couple, up to the
		// sub-array budget, on the sweep that reaches the hot threshold.
		var hits int
		for pass := 0; pass <= lcfg.HotThreshold; pass++ {
			hits = rowHitSweep(t, d, &now)
		}
		if conv := d.MechStats().Conversions; conv == 0 || int64(hits) != 2*conv {
			t.Fatalf("%d pairs coupled, %d gang hits; want two hits a pair", conv, hits)
		}
		// Uncouple a pair while one of its rows is open: the other stops
		// hitting at once, with no command in between.
		row := 0
		for !clr.IsCoupled(row) {
			row += 2
		}
		a := core.Address{Rank: 1, Bank: 3, Row: row}
		bank := a.BankID(d.cfg.Geom)
		now, _ = d.EarliestActivate(a, now)
		d.Activate(a, now)
		if !d.IsRowHitAt(bank, row+1) {
			t.Fatalf("coupled pair %d: the partner does not hit", row)
		}
		d.Quarantine(row + 1)
		if d.IsRowHitAt(bank, row+1) || d.mech.SameGang(row, row+1) {
			t.Fatalf("pair %d quarantined while open: the partner still hits", row)
		}
		if !d.IsRowHitAt(bank, row) {
			t.Fatal("the open row itself must still hit")
		}
		now, _ = d.EarliestPrecharge(a, now)
		d.Precharge(a, now)
		if got, want := rowHitSweep(t, d, &now), hits-2; got != want {
			t.Fatalf("after the quarantine: %d gang hits, want %d", got, want)
		}
	})
}
