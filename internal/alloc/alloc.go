// Package alloc implements the paper's pseudo profile-based page
// allocation (Sec. 4.4): the hottest rows of a workload are relocated into
// the MCR region of the *same bank* — channel, rank, bank and column bits
// are untouched, so bank-level parallelism and row-buffer locality are
// preserved — by swapping row positions pairwise within each bank.
package alloc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/mcr"
)

// RowMap is a per-bank permutation of row addresses, applied by the memory
// controller after address decoding. It keeps only the rows a bank's swaps
// moved: a swap moves at most the hottest fraction of the touched rows, so
// nearly all of a bank maps to itself.
type RowMap struct {
	geom core.Geometry
	// perBank holds, per flattened BankID, the bank's moved rows in an
	// open-addressed table of from<<32 | to slots; nil for identity banks.
	// The table's length is a power of two at least twice the moved rows,
	// so every probe ends, at the row's slot or at an empty one.
	perBank [][]uint64
}

// emptySlot marks an unused slot of a bank's table; no row is 2³²−1.
const emptySlot = ^uint64(0)

// slotOf is the first slot a row probes in a table of n slots (a power of
// two): the top half of a Fibonacci hash.
func slotOf(row uint64, n int) int {
	return int((row*0x9E3779B97F4A7C15)>>32) & (n - 1)
}

// Identity returns the no-op allocation.
func Identity(geom core.Geometry) *RowMap {
	return &RowMap{geom: geom, perBank: make([][]uint64, geom.Channels*geom.Ranks*geom.Banks)}
}

// Map rewrites the row of a decoded address; all other fields pass through.
// An identity bank costs one nil check.
func (m *RowMap) Map(a core.Address) core.Address {
	t := m.perBank[a.BankID(m.geom)]
	if t == nil {
		return a
	}
	row := uint64(a.Row)
	for i := slotOf(row, len(t)); ; i = (i + 1) & (len(t) - 1) {
		v := t[i]
		if v>>32 == row {
			a.Row = int(uint32(v))
			return a
		}
		if v == emptySlot {
			return a
		}
	}
}

// ErrMultiBand reports a single-band allocation asked of a combined
// layout: its bands are filled by FromProfileLayout.
var ErrMultiBand = errors.New("alloc: a single-band allocation cannot fill a combined layout; it needs FromProfileLayout")

// Heat is one touched row of a bank's profile and its access count.
type Heat struct {
	Row   int
	Count int64
}

// Profile is an access profile by flattened BankID: Profile[b] lists the
// touched rows of bank b, each once, in any order. FromProfile and
// FromProfileLayout reorder each bank's slice in place.
type Profile [][]Heat

// ProfileBased builds an allocation from per-(bank,row) access counts, as
// FromProfile does: counts is keyed by the flattened BankID and holds
// row->accesses.
func ProfileBased(geom core.Geometry, gen *mcr.Generator, counts map[int]map[int]int64, ratio float64) (*RowMap, error) {
	if err := singleBand(gen, ratio); err != nil {
		return nil, err
	}
	prof := make(Profile, geom.Channels*geom.Ranks*geom.Banks)
	for bankID, rows := range counts { //mcrlint:allow determinism each bank's rows are sorted by FromProfile under a total order (count, then row)
		if bankID < 0 || bankID >= len(prof) {
			return nil, fmt.Errorf("alloc: bank id %d out of range", bankID)
		}
		heats := make([]Heat, 0, len(rows))
		for r, c := range rows { //mcrlint:allow determinism as above
			heats = append(heats, Heat{Row: r, Count: c})
		}
		prof[bankID] = heats
	}
	return FromProfile(geom, gen, prof, ratio)
}

// singleBand checks a single-band allocation's ratio and layout.
func singleBand(gen *mcr.Generator, ratio float64) error {
	if err := core.Within("alloc: ratio", ratio, core.Closed, 0, 1); err != nil {
		return err
	}
	if len(gen.Layout().Bands) > 1 {
		return ErrMultiBand
	}
	return nil
}

// FromProfile builds an allocation from a profile: in each bank, the
// hottest `ratio` fraction of that bank's *touched* rows is swapped into
// the bank's MCR region, hottest first, one row per MCR base (only the
// first row of an MCR is usable — the clones hold the same data, paper
// Sec. 4.4 "Prevention of Data Collision").
//
// gen supplies the MCR region geometry of a single-band mode (an empty
// layout allocates nothing); the profile's banks and rows must be those of
// the controller's address mapping, so profile rows land in the right
// banks.
func FromProfile(geom core.Geometry, gen *mcr.Generator, prof Profile, ratio float64) (*RowMap, error) {
	if err := singleBand(gen, ratio); err != nil {
		return nil, err
	}
	m := Identity(geom)
	if !gen.Layout().Enabled() || ratio == 0 {
		return m, nil
	}
	if err := checkProfile(geom, prof); err != nil {
		return nil, err
	}
	k := gen.Layout().Bands[0].K
	slots := gen.BandSlots(k, geom.Rows)
	for bankID, heats := range prof {
		if heats == nil {
			continue
		}
		sortByHeat(heats)
		want := min(int(float64(len(heats))*ratio+0.5), len(slots))
		fwd := perm{}
		si := 0
		for i := 0; i < want && si < len(slots); i++ {
			hot := heats[i].Row
			if gen.InMCR(hot) && gen.MCRBase(hot) == hot {
				continue // already an MCR base: nothing to do
			}
			slot := slots[si]
			si++
			// Swap the hot row into the MCR base slot.
			fwd.swap(hot, slot)
		}
		m.perBank[bankID] = fwd.moved()
	}
	return m, nil
}

// checkProfile range-checks a profile's banks and rows against geom.
func checkProfile(geom core.Geometry, prof Profile) error {
	for bankID, heats := range prof {
		if heats != nil && bankID >= geom.Channels*geom.Ranks*geom.Banks {
			return fmt.Errorf("alloc: bank id %d out of range", bankID)
		}
		for _, h := range heats {
			if h.Row < 0 || h.Row >= geom.Rows {
				return fmt.Errorf("alloc: row %d out of range for bank %d", h.Row, bankID)
			}
		}
	}
	return nil
}

// sortByHeat orders a bank's rows hottest first, ties by row.
func sortByHeat(heats []Heat) {
	slices.SortFunc(heats, func(a, b Heat) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Row, b.Row) // deterministic tie-break
	})
}

// perm is a bank's row permutation under construction. It holds only the
// rows it moved: a row it does not hold maps to itself.
type perm map[int]int

// at returns the row r maps to.
func (p perm) at(r int) int {
	if v, ok := p[r]; ok {
		return v
	}
	return r
}

// swap exchanges what rows a and b map to.
func (p perm) swap(a, b int) { p[a], p[b] = p.at(b), p.at(a) }

// moved returns the rows p moves as RowMap keeps them, nil if none. They
// go into the table in ascending order, so equal maps are equal tables.
func (p perm) moved() []uint64 {
	pairs := make([]uint64, 0, len(p))
	for from, to := range p { //mcrlint:allow determinism sorted immediately below; the pairs are distinct
		if from != to {
			pairs = append(pairs, uint64(from)<<32|uint64(to))
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	slices.Sort(pairs)
	size := 1
	for size < 2*len(pairs) {
		size <<= 1
	}
	t := make([]uint64, size)
	for i := range t {
		t[i] = emptySlot
	}
	for _, v := range pairs {
		i := slotOf(v>>32, size)
		for t[i] != emptySlot {
			i = (i + 1) & (size - 1)
		}
		t[i] = v
	}
	return t
}

// FromProfileLayout is the combined-layout allocator (paper Sec. 4.4,
// "Combination of 2x and 4x MCR"): the hottest ratio4 fraction of each
// bank's touched rows moves into the 4x band, the next-hottest ratio2
// fraction into the 2x band. Bands the layout lacks are skipped.
func FromProfileLayout(geom core.Geometry, gen *mcr.Generator, prof Profile, ratio4, ratio2 float64) (*RowMap, error) {
	if err := errors.Join(
		core.Within("alloc: ratio4", ratio4, core.Closed, 0, 1),
		core.Within("alloc: ratio2", ratio2, core.Closed, 0, 1),
	); err != nil {
		return nil, err
	}
	if ratio4+ratio2 > 1 {
		return nil, fmt.Errorf("alloc: layout ratios %g + %g exceed 1", ratio4, ratio2)
	}
	m := Identity(geom)
	if !gen.Layout().Enabled() || (ratio4 == 0 && ratio2 == 0) {
		return m, nil
	}
	if err := checkProfile(geom, prof); err != nil {
		return nil, err
	}
	for bankID, heats := range prof {
		if heats == nil {
			continue
		}
		sortByHeat(heats)
		// fwd maps original row -> physical slot; inv is its inverse
		// (physical slot -> original row) so later tiers can follow
		// earlier swaps.
		fwd, inv := perm{}, perm{}
		swap := func(slotA, slotB int) {
			ra, rb := inv.at(slotA), inv.at(slotB)
			inv[slotA], inv[slotB] = rb, ra
			fwd[ra], fwd[rb] = slotB, slotA
		}
		next := 0
		for _, tier := range []struct {
			k     int
			ratio float64
		}{{4, ratio4}, {2, ratio2}} {
			if tier.ratio == 0 {
				continue
			}
			slots := gen.BandSlots(tier.k, geom.Rows)
			want := int(float64(len(heats))*tier.ratio + 0.5)
			si := 0
			for ; want > 0 && next < len(heats) && si < len(slots); next++ {
				cur := fwd.at(heats[next].Row)
				if gen.KAt(cur) == tier.k {
					want--
					continue // already in the right band
				}
				swap(cur, slots[si])
				si++
				want--
			}
		}
		m.perBank[bankID] = fwd.moved()
	}
	return m, nil
}
