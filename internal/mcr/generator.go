// MCR generator: the peripheral circuit of paper Fig 7(c) that sits between
// the address buffer and the internal address lines. It detects whether an
// incoming row address falls in an MCR band (one or two high bits of the
// subarray-local address, Sec. 4.2) and, if so, forces the log2(K) LSBs of
// both the true and complement internal address high so that all K clone
// wordlines fire together. A simple mode is the single-band layout
// LayoutOf(mode); Sec. 4.4's combined 2x+4x layout stacks two bands.

package mcr

import "fmt"

// Generator is the MCR generator of one bank: the row classifier every
// row query reads. It is a pure function of the layout and the subarray
// height.
type Generator struct {
	layout       Layout
	subarrayRows int
	// starts[i] is the first local index of band i; bands occupy
	// [starts[i], ends[i]) with band 0 at the top (nearest the SAs).
	starts, ends []int
}

// NewGenerator builds the generator for banks whose subarrays hold
// subarrayRows rows (a power of two, 512 in the paper's devices).
func NewGenerator(l Layout, subarrayRows int) (*Generator, error) {
	if subarrayRows <= 0 || subarrayRows&(subarrayRows-1) != 0 {
		return nil, fmt.Errorf("mcr: subarrayRows must be a positive power of two, got %d", subarrayRows)
	}
	checked, err := NewLayout(l.Bands...)
	if err != nil {
		return nil, err
	}
	g := &Generator{layout: checked, subarrayRows: subarrayRows}
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
func (g *Generator) Layout() Layout { return g.layout }

// bandIndex returns which band a row falls in, or -1 for normal rows.
func (g *Generator) bandIndex(row int) int {
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
func (g *Generator) BandFor(row int) (Band, bool) {
	i := g.bandIndex(row)
	if i < 0 {
		return Band{}, false
	}
	return g.layout.Bands[i], true
}

// InMCR is the MCR detector: it reports whether a row is ganged. Bands
// occupy the rows nearest the sense amplifiers, which the paper identifies
// with the *high* local addresses (50%reg <=> A8=1, 25%reg <=> A8A7=11 for
// 512-row subarrays).
func (g *Generator) InMCR(row int) bool { return g.bandIndex(row) >= 0 }

// KAt returns how many wordlines fire when the row is activated: its
// band's K, 1 for a normal row.
func (g *Generator) KAt(row int) int {
	if b, ok := g.BandFor(row); ok {
		return b.K
	}
	return 1
}

// MAt returns the refreshes kept per window for a row's band (1 for
// normal rows, which are refreshed once anyway).
func (g *Generator) MAt(row int) int {
	if b, ok := g.BandFor(row); ok {
		return b.M
	}
	return 1
}

// MCRBase is the address changer: for a row inside an MCR it returns the
// MCR address (LSBs don't care, canonicalized to zero); for a normal row it
// returns the row unchanged.
func (g *Generator) MCRBase(row int) int { return row &^ (g.KAt(row) - 1) }

// CloneRows returns every physical row whose wordline fires when the given
// row is activated: the K members of its MCR, or just the row itself for a
// normal row.
func (g *Generator) CloneRows(row int) []int { return gangRows(row, g.KAt(row)) }

// gangRows lists the k adjacent rows from row &^ (k-1).
func gangRows(row, k int) []int {
	rows := make([]int, k)
	for i := range rows {
		rows[i] = row&^(k-1) + i
	}
	return rows
}

// SameMCR reports whether two rows activate the same set of wordlines.
func (g *Generator) SameMCR(a, b int) bool {
	ia, ib := g.bandIndex(a), g.bandIndex(b)
	return ia >= 0 && ia == ib && g.MCRBase(a) == g.MCRBase(b)
}

// BandSlots lists the usable MCR base rows of one band within a bank of
// rowsPerBank rows, in address order (for the allocator).
func (g *Generator) BandSlots(bandK, rowsPerBank int) []int {
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
