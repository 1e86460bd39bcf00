// Combined MCR layouts (paper Sec. 4.4, "Combination of 2x and 4x MCR"):
// when capacity allows, a sub-array can host a 4x band for the hottest
// pages *and* a 2x band for warm pages, with the remainder as normal rows.
// Bands stack from the sense-amplifier end (highest local addresses), most
// aggressive first, so the fastest rows stay nearest the amplifiers.

package mcr

import (
	"fmt"
	"math/bits"
	"sort"
)

// Band is one region of a layout: a fraction of every sub-array ganged as
// Kx MCRs with M refreshes kept per window.
type Band struct {
	K      int     // 2 or 4
	M      int     // 1 <= M <= K, power of two
	Region float64 // fraction of the sub-array (multiple of 0.25)
}

// Layout is an ordered set of bands, largest K first (nearest the sense
// amplifiers). An empty layout is a conventional DRAM.
type Layout struct {
	Bands []Band
}

// NewLayout validates and normalizes a combined layout.
func NewLayout(bands ...Band) (Layout, error) {
	l := Layout{Bands: append([]Band(nil), bands...)}
	sort.Slice(l.Bands, func(i, j int) bool { return l.Bands[i].K > l.Bands[j].K })
	seen := map[int]bool{}
	total := 0.0
	for _, b := range l.Bands {
		m := Mode{K: b.K, M: b.M, Region: b.Region}
		if err := m.Validate(); err != nil {
			return Layout{}, err
		}
		if b.K == 1 {
			return Layout{}, fmt.Errorf("mcr: layout bands must gang rows (K >= 2)")
		}
		if seen[b.K] {
			return Layout{}, fmt.Errorf("mcr: duplicate %dx band", b.K)
		}
		seen[b.K] = true
		total += b.Region
	}
	if total > 1+1e-9 {
		return Layout{}, fmt.Errorf("mcr: layout regions sum to %g > 1", total)
	}
	return l, nil
}

// LayoutOf converts a simple mode into its single-band layout (empty for
// the off mode).
func LayoutOf(m Mode) Layout {
	if !m.Enabled() {
		return Layout{}
	}
	return Layout{Bands: []Band{{K: m.K, M: m.M, Region: m.Region}}}
}

// Enabled reports whether the layout gangs any rows.
func (l Layout) Enabled() bool { return len(l.Bands) > 0 }

// MaxK returns the largest band K (1 when disabled).
func (l Layout) MaxK() int {
	k := 1
	for _, b := range l.Bands {
		if b.K > k {
			k = b.K
		}
	}
	return k
}

// String renders e.g. "layout [4/4x/25%+2/2x/25%]".
func (l Layout) String() string {
	if !l.Enabled() {
		return "layout [off]"
	}
	s := "layout ["
	for i, b := range l.Bands {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%d/%dx/%d%%", b.M, b.K, int(b.Region*100+0.5))
	}
	return s + "]"
}

// LayoutGenerator is the peripheral address logic for a combined layout:
// the multi-band counterpart of Generator.
type LayoutGenerator struct {
	layout       Layout
	subarrayRows int
	// starts[i] is the first local index of band i; bands occupy
	// [starts[i], ends[i]) with band 0 at the top (nearest the SAs).
	starts, ends []int
}

// NewLayoutGenerator builds the generator for a sub-array height.
func NewLayoutGenerator(l Layout, subarrayRows int) (*LayoutGenerator, error) {
	if subarrayRows <= 0 || subarrayRows&(subarrayRows-1) != 0 {
		return nil, fmt.Errorf("mcr: subarrayRows must be a positive power of two, got %d", subarrayRows)
	}
	checked, err := NewLayout(l.Bands...)
	if err != nil {
		return nil, err
	}
	g := &LayoutGenerator{layout: checked, subarrayRows: subarrayRows}
	top := subarrayRows
	for _, b := range checked.Bands {
		rows := int(b.Region*float64(subarrayRows) + 0.5)
		if rows%b.K != 0 {
			return nil, fmt.Errorf("mcr: band %dx region %g is not a whole number of MCRs", b.K, b.Region)
		}
		g.starts = append(g.starts, top-rows)
		g.ends = append(g.ends, top)
		top -= rows
	}
	return g, nil
}

// Layout returns the validated layout.
func (g *LayoutGenerator) Layout() Layout { return g.layout }

// SubarrayRows returns the sub-array height.
func (g *LayoutGenerator) SubarrayRows() int { return g.subarrayRows }

// bandIndex returns which band a row falls in, or -1 for normal rows.
func (g *LayoutGenerator) bandIndex(row int) int {
	if row < 0 {
		return -1
	}
	local := row & (g.subarrayRows - 1)
	for i := range g.starts {
		if local >= g.starts[i] && local < g.ends[i] {
			return i
		}
	}
	return -1
}

// BandFor returns the band containing a row and whether there is one.
func (g *LayoutGenerator) BandFor(row int) (Band, bool) {
	i := g.bandIndex(row)
	if i < 0 {
		return Band{}, false
	}
	return g.layout.Bands[i], true
}

// InMCR reports whether a row is ganged.
func (g *LayoutGenerator) InMCR(row int) bool { return g.bandIndex(row) >= 0 }

// KAt returns the gang size of a row (1 for normal rows).
func (g *LayoutGenerator) KAt(row int) int {
	if b, ok := g.BandFor(row); ok {
		return b.K
	}
	return 1
}

// MAt returns the refreshes kept per window for a row's band (1 for
// normal rows, which are refreshed once anyway).
func (g *LayoutGenerator) MAt(row int) int {
	if b, ok := g.BandFor(row); ok {
		return b.M
	}
	return 1
}

// MCRBase canonicalizes a row to its MCR address (itself for normal rows).
func (g *LayoutGenerator) MCRBase(row int) int {
	b, ok := g.BandFor(row)
	if !ok {
		return row
	}
	return row &^ (b.K - 1)
}

// CloneRows lists the wordlines that fire for a row.
func (g *LayoutGenerator) CloneRows(row int) []int { return gangRows(row, g.KAt(row)) }

// SameMCR reports whether two rows share a gang.
func (g *LayoutGenerator) SameMCR(a, b int) bool {
	ia, ib := g.bandIndex(a), g.bandIndex(b)
	return ia >= 0 && ia == ib && g.MCRBase(a) == g.MCRBase(b)
}

// BandSlots lists the usable MCR base rows of one band within a bank of
// rowsPerBank rows, in address order (for the allocator).
func (g *LayoutGenerator) BandSlots(bandK, rowsPerBank int) []int {
	var idx = -1
	for i, b := range g.layout.Bands {
		if b.K == bandK {
			idx = i
		}
	}
	if idx < 0 {
		return nil
	}
	var slots []int
	for base := 0; base < rowsPerBank; base += g.subarrayRows {
		for local := g.starts[idx]; local < g.ends[idx]; local += bandK {
			slots = append(slots, base+local)
		}
	}
	return slots
}

// lgOf returns log2 of a power of two.
func lgOf(k int) int { return bits.TrailingZeros(uint(k)) }
