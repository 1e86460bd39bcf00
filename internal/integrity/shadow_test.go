package integrity

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/mcr"
)

// refChecker is the map-of-maps checker the slab shadow replaced, kept as
// the reference model: one heap state per row ever looked at, a clone
// gang as a fresh slice, a sort before every ordered walk.
type refChecker struct {
	real  *Checker // configuration, fault model and context only
	rows  map[int]map[int]*struct{ atMs, level float64 }
	found []Violation
	sense map[[2]int]bool
}

func (m *refChecker) gang(row int) []int {
	k := m.real.gen.GangK(row)
	rows := make([]int, k)
	for i := range rows {
		rows[i] = row&^(k-1) + i
	}
	return rows
}

func (m *refChecker) check(bank, row int, tMs float64) {
	st := m.rows[bank][row]
	if st == nil {
		return // never written: nothing to lose
	}
	c := m.real
	leak := c.cfg.LeakFracPerWindow / c.cfg.RetentionMs * c.faults.LeakMultiplier(row, c.kFor(row), st.atMs, tMs)
	if st.level-leak*(tMs-st.atMs) < c.floor-1e-12 {
		m.found = append(m.found, Violation{Kind: KindRetention, Bank: bank, Row: row, AtMs: tMs, Level: st.level,
			SinceMs: tMs - st.atMs, FloorFrac: c.floor, K: c.kFor(row), Mode: c.mode()})
	}
}

func (m *refChecker) activate(bank, row int, tMs float64) {
	for _, r := range m.gang(row) {
		m.check(bank, r, tMs)
	}
	c, key := m.real, [2]int{bank, row}
	if k := c.kFor(row); k > 1 && c.faults.SenseFault(row, k) && !m.sense[key] {
		m.sense[key] = true
		m.found = append(m.found, Violation{Kind: KindSenseMargin, Bank: bank, Row: row, AtMs: tMs, K: k, Mode: c.mode()})
	}
}

func (m *refChecker) restore(bank, row int, level, tMs float64) {
	for _, r := range m.gang(row) {
		if m.rows[bank] == nil {
			m.rows[bank] = map[int]*struct{ atMs, level float64 }{}
		}
		m.rows[bank][r] = &struct{ atMs, level float64 }{tMs, level}
	}
}

// sorted flattens the reference's rows in (bank, row) order.
func (m *refChecker) sorted() []RowSnapshot {
	var out []RowSnapshot
	for bank, rows := range m.rows {
		for row, st := range rows {
			out = append(out, RowSnapshot{Bank: bank, Row: row, AtMs: st.atMs, Level: st.level})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return compareKeys([2]int{out[i].Bank, out[i].Row}, [2]int{out[j].Bank, out[j].Row}) < 0
	})
	return out
}

func (m *refChecker) sweep(tMs float64) {
	for _, r := range m.sorted() {
		m.check(r.Bank, r.Row, tMs)
	}
}

// regang is a Cloner whose answer changes mid-stream, as a device's does
// after an MRS: rows at or past from in each 64-row subarray gang k wide.
type regang struct{ k, from int }

func (g *regang) GangK(row int) int {
	if row%64 >= g.from {
		return g.k
	}
	return 1
}

// TestShadowMatchesMapReference drives one seeded stream of ACT / PRE / REF
// hooks into the real checker and into the map reference — fault model
// attached, the gangs re-cut mid-stream, rows quarantined on the way, and
// the real checker exported into a fresh one at a random cut — and wants
// the same violations in the same order, the same exported rows and the
// same Sweep. The canaries it was written against: checking rows that were
// never written, and sweeping in slab order instead of (bank, row) order.
func TestShadowMatchesMapReference(t *testing.T) {
	const banks, rows, ops = 4, 256, 6000
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fm, err := fault.NewModel(fault.Config{Seed: seed, WeakFraction: 0.05, TailMinFrac: 0.002, TailMaxFrac: 0.02,
			SenseNoiseFrac: 0.1, SenseGuardBandV: 0.5}, rows)
		if err != nil {
			t.Fatal(err)
		}
		gen, quarantined := &regang{k: 4, from: 16}, map[int]bool{}
		build := func() *Checker {
			c, err := New(DefaultConfig(), gen)
			if err != nil {
				t.Fatal(err)
			}
			c.banks, c.rows = banks, rows
			c.SetFaults(fm)
			c.SetModeContext(func() string { return "mode" + string(rune('0'+gen.k)) }, func(row int) int {
				if quarantined[row] {
					return 1
				}
				return gen.GangK(row)
			})
			return c
		}
		real := build()
		ref := &refChecker{real: real, rows: map[int]map[int]*struct{ atMs, level float64 }{}, sense: map[[2]int]bool{}}
		cut, now := rng.Intn(ops), 0.0
		for i := 0; i < ops; i++ {
			now += rng.Float64() * 0.02
			bank, row := rng.Intn(banks), rng.Intn(rows)
			level := real.cfg.RestoreLevelFor(1 << rng.Intn(3))
			switch op := rng.Intn(100); {
			case op < 45:
				real.CheckActivate(bank, row, now)
				ref.activate(bank, row, now)
			case op < 90:
				real.RecordRestore(bank, row, level, now)
				ref.restore(bank, row, level, now)
			case op < 97: // REF: a batch of rows in every bank
				for b := 0; b < banks; b++ {
					for r := row &^ 7; r < row&^7+8; r++ {
						real.RecordRestore(b, r, level, now)
						ref.restore(b, r, level, now)
					}
				}
			case op < 98: // a mid-run Sweep: before the cut the slab is in first-restore order
				real.Sweep(now)
				ref.sweep(now)
			default:
				quarantined[row] = true
			}
			if i == ops/2 {
				gen.k, gen.from = 2, 32 // the mode change
			}
			if i == cut {
				resumed := build()
				if err := resumed.ImportState(real.ExportState()); err != nil {
					t.Fatalf("seed %d: importing the checker's own export: %v", seed, err)
				}
				real, ref.real = resumed, resumed
			}
		}
		got, err := real.ExportState().Rows.Unpack()
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.sorted(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: exported %d rows, the reference holds %d (or they differ)", seed, len(got), len(want))
		}
		real.Sweep(now + 20)
		ref.sweep(now + 20)
		if len(ref.found) < 20 || len(got) < rows {
			t.Fatalf("seed %d: only %d violations over %d rows: the stream does not exercise the checker", seed, len(ref.found), len(got))
		}
		if !reflect.DeepEqual(real.Violations(), ref.found) {
			t.Fatalf("seed %d: %d violations, the reference found %d (or they differ, order included)", seed, len(real.Violations()), len(ref.found))
		}
	}
}

// TestRowSetRoundTrip: rows in any order, with any values, unpack to what
// was packed; bytes that end inside a record are an error.
func TestRowSetRoundTrip(t *testing.T) {
	rows := []RowSnapshot{{Bank: 3, Row: 9, AtMs: 1.25, Level: 0.85}, {Bank: 3, Row: 10, AtMs: 1.25, Level: 0.85},
		{Bank: -1, Row: 1 << 40, AtMs: -0.0, Level: 2}, {Bank: 0, Row: 0}, {Bank: 0, Row: 0}}
	packed := PackRows(rows)
	got, err := packed.Unpack()
	if err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip: %v, %+v", err, got)
	}
	if len(PackRows(rows[:2])) != len(PackRows(rows[:1]))+1 {
		t.Error("a clone restored with its predecessor must take one byte")
	}
	for cut := 1; cut < len(packed); cut++ {
		if short, err := packed[:cut].Unpack(); err == nil && len(short) >= len(rows) {
			t.Errorf("cut at %d of %d bytes still unpacks %d rows", cut, len(packed), len(short))
		}
	}
	if _, err := append(packed[:len(packed):len(packed)], 0x80).Unpack(); err == nil {
		t.Error("a dangling continuation byte must be an error")
	}
}

// TestImportStateRejects: what an indexed shadow cannot store is refused
// before anything is overwritten.
func TestImportStateRejects(t *testing.T) {
	ok := []RowSnapshot{{Bank: 0, Row: 4, AtMs: 1, Level: 0.9}, {Bank: 1, Row: 2, AtMs: 2, Level: 1}}
	with := func(mutate func([]RowSnapshot) []RowSnapshot) State {
		return State{Rows: PackRows(mutate(append([]RowSnapshot(nil), ok...)))}
	}
	nan := 0.0
	bad := map[string]State{
		"negative bank":   with(func(r []RowSnapshot) []RowSnapshot { r[0].Bank = -1; return r }),
		"bank past banks": with(func(r []RowSnapshot) []RowSnapshot { r[1].Bank = 2; return r }),
		"negative row":    with(func(r []RowSnapshot) []RowSnapshot { r[0].Row = -4; return r }),
		"row past rows":   with(func(r []RowSnapshot) []RowSnapshot { r[1].Row = 64; return r }),
		"duplicate":       with(func(r []RowSnapshot) []RowSnapshot { return append(r, r[1]) }),
		"descending":      with(func(r []RowSnapshot) []RowSnapshot { r[0], r[1] = r[1], r[0]; return r }),
		"level zero":      with(func(r []RowSnapshot) []RowSnapshot { r[0].Level = 0; return r }),
		"level above one": with(func(r []RowSnapshot) []RowSnapshot { r[0].Level = 1.5; return r }),
		"time not finite": with(func(r []RowSnapshot) []RowSnapshot { r[0].AtMs = nan / nan; return r }),
		"cut blob":        {Rows: append(PackRows(ok), 0x80)},
		"sense key":       {Rows: PackRows(ok), SenseSeen: [][2]int{{0, 64}}},
	}
	for name, st := range bad {
		c := newChecker(t, DefaultConfig(), mcr.Off())
		c.banks, c.rows = 2, 64
		c.RecordRestore(1, 7, 1, 0)
		if err := c.ImportState(st); err == nil {
			t.Errorf("%s: imported", name)
		}
		if rows, _ := c.ExportState().Rows.Unpack(); len(rows) != 1 || rows[0].Row != 7 {
			t.Errorf("%s: a refused import changed the shadow: %+v", name, rows)
		}
	}
	c := newChecker(t, DefaultConfig(), mcr.Off())
	c.banks, c.rows = 2, 64
	if err := c.ImportState(State{Rows: PackRows(ok), SenseSeen: [][2]int{{1, 63}}}); err != nil {
		t.Fatalf("a legal state was refused: %v", err)
	}
	if rows, _ := c.ExportState().Rows.Unpack(); !reflect.DeepEqual(rows, ok) {
		t.Fatalf("imported rows = %+v", rows)
	}
}
