// Package alloc implements the paper's pseudo profile-based page
// allocation (Sec. 4.4): the hottest rows of a workload are relocated into
// the MCR region of the *same bank* — channel, rank, bank and column bits
// are untouched, so bank-level parallelism and row-buffer locality are
// preserved — by swapping row positions pairwise within each bank.
package alloc

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mcr"
)

// RowMap is a per-bank permutation of row addresses, applied by the memory
// controller after address decoding.
type RowMap struct {
	geom    core.Geometry
	perBank [][]int32 // forward map, nil for identity banks
}

// Identity returns the no-op allocation.
func Identity(geom core.Geometry) *RowMap {
	return &RowMap{geom: geom, perBank: make([][]int32, geom.Channels*geom.Ranks*geom.Banks)}
}

// Map rewrites the row of a decoded address; all other fields pass through.
func (m *RowMap) Map(a core.Address) core.Address {
	pb := m.perBank[a.BankID(m.geom)]
	if pb == nil {
		return a
	}
	a.Row = int(pb[a.Row])
	return a
}

// ErrMultiBand reports a ProfileBased call on a combined layout: its bands
// are filled by ProfileBasedLayout.
var ErrMultiBand = errors.New("alloc: ProfileBased fills a single-band mode; a combined layout needs ProfileBasedLayout")

// rowHeat is one (bank, row) profile sample.
type rowHeat struct {
	row   int
	count int64
}

// ProfileBased builds an allocation from per-(bank,row) access counts: in
// each bank, the hottest `ratio` fraction of that bank's *touched* rows is
// swapped into the bank's MCR region, hottest first, one row per MCR base
// (only the first row of an MCR is usable — the clones hold the same data,
// paper Sec. 4.4 "Prevention of Data Collision").
//
// counts is keyed by the flattened BankID and holds row->accesses.
// gen supplies the MCR region geometry of a single-band mode (an empty
// layout allocates nothing); decode must match the controller's address
// mapping so profile rows land in the right banks.
func ProfileBased(geom core.Geometry, gen *mcr.Generator, counts map[int]map[int]int64, ratio float64) (*RowMap, error) {
	if err := core.Within("alloc: ratio", ratio, core.Closed, 0, 1); err != nil {
		return nil, err
	}
	if len(gen.Layout().Bands) > 1 {
		return nil, ErrMultiBand
	}
	m := Identity(geom)
	if !gen.Layout().Enabled() || ratio == 0 {
		return m, nil
	}
	k := gen.Layout().Bands[0].K
	slots := gen.BandSlots(k, geom.Rows)
	for bankID, rows := range counts { //mcrlint:allow determinism each bank builds its own permutation from a slice sorted below; banks do not interact
		if bankID < 0 || bankID >= len(m.perBank) {
			return nil, fmt.Errorf("alloc: bank id %d out of range", bankID)
		}
		heats := make([]rowHeat, 0, len(rows))
		for r, c := range rows { //mcrlint:allow determinism sorted immediately below under a total order (count, then row)
			if r < 0 || r >= geom.Rows {
				return nil, fmt.Errorf("alloc: row %d out of range for bank %d", r, bankID)
			}
			heats = append(heats, rowHeat{row: r, count: c})
		}
		sort.Slice(heats, func(i, j int) bool {
			if heats[i].count != heats[j].count {
				return heats[i].count > heats[j].count
			}
			return heats[i].row < heats[j].row // deterministic tie-break
		})
		want := min(int(float64(len(heats))*ratio+0.5), len(slots))
		perm := identityPerm(geom.Rows)
		si := 0
		for i := 0; i < want && si < len(slots); i++ {
			hot := heats[i].row
			if gen.InMCR(hot) && gen.MCRBase(hot) == hot {
				continue // already an MCR base: nothing to do
			}
			slot := slots[si]
			si++
			// Swap the hot row into the MCR base slot.
			perm[hot], perm[slot] = perm[slot], perm[hot]
		}
		m.perBank[bankID] = perm
	}
	return m, nil
}

// identityPerm returns [0, 1, ..., n-1].
func identityPerm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// ProfileBasedLayout is the combined-layout allocator (paper Sec. 4.4,
// "Combination of 2x and 4x MCR"): the hottest ratio4 fraction of each
// bank's touched rows moves into the 4x band, the next-hottest ratio2
// fraction into the 2x band. Bands the layout lacks are skipped.
func ProfileBasedLayout(geom core.Geometry, gen *mcr.Generator, counts map[int]map[int]int64, ratio4, ratio2 float64) (*RowMap, error) {
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
	for bankID, rows := range counts { //mcrlint:allow determinism each bank builds its own permutation from a slice sorted below; banks do not interact
		if bankID < 0 || bankID >= len(m.perBank) {
			return nil, fmt.Errorf("alloc: bank id %d out of range", bankID)
		}
		heats := make([]rowHeat, 0, len(rows))
		for r, c := range rows { //mcrlint:allow determinism sorted immediately below under a total order (count, then row)
			if r < 0 || r >= geom.Rows {
				return nil, fmt.Errorf("alloc: row %d out of range for bank %d", r, bankID)
			}
			heats = append(heats, rowHeat{row: r, count: c})
		}
		sort.Slice(heats, func(i, j int) bool {
			if heats[i].count != heats[j].count {
				return heats[i].count > heats[j].count
			}
			return heats[i].row < heats[j].row
		})
		// perm maps original row -> physical slot; pos is its inverse
		// (physical slot -> original row) so later tiers can follow
		// earlier swaps in O(1).
		perm := identityPerm(geom.Rows)
		pos := identityPerm(geom.Rows)
		swap := func(slotA, slotB int) {
			ra, rb := pos[slotA], pos[slotB]
			pos[slotA], pos[slotB] = rb, ra
			perm[ra], perm[rb] = int32(slotB), int32(slotA)
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
				cur := int(perm[heats[next].row])
				if gen.KAt(cur) == tier.k {
					want--
					continue // already in the right band
				}
				swap(cur, slots[si])
				si++
				want--
			}
		}
		m.perBank[bankID] = perm
	}
	return m, nil
}
