// MCR generator: the peripheral circuit of paper Fig 7(c) that sits between
// the address buffer and the internal address lines. It detects whether an
// incoming row address falls in the MCR region (one or two high bits of the
// subarray-local address, Sec. 4.2) and, if so, forces the log2(K) LSBs of
// both the true and complement internal address high so that all K clone
// wordlines fire together.

package mcr

import "fmt"

// Generator models the MCR generator for one bank. It is a pure function of
// the programmed mode and the subarray geometry.
type Generator struct {
	mode         Mode
	subarrayRows int
	regionStart  int // first subarray-local row index inside the MCR region
}

// NewGenerator builds a generator for banks whose subarrays hold
// subarrayRows rows (a power of two, 512 in the paper's devices).
func NewGenerator(mode Mode, subarrayRows int) (*Generator, error) {
	if err := mode.Validate(); err != nil {
		return nil, err
	}
	if subarrayRows <= 0 || subarrayRows&(subarrayRows-1) != 0 {
		return nil, fmt.Errorf("mcr: subarrayRows must be a positive power of two, got %d", subarrayRows)
	}
	if mode.Enabled() && int(mode.Region*float64(subarrayRows))%mode.K != 0 {
		return nil, fmt.Errorf("mcr: region %g of %d rows is not a whole number of %dx MCRs", mode.Region, subarrayRows, mode.K)
	}
	g := &Generator{mode: mode, subarrayRows: subarrayRows}
	g.regionStart = subarrayRows - int(mode.Region*float64(subarrayRows)+0.5)
	if !mode.Enabled() {
		g.regionStart = subarrayRows // empty region
	}
	return g, nil
}

// Mode returns the programmed MCR-mode.
func (g *Generator) Mode() Mode { return g.mode }

// SubarrayRows returns the subarray height the generator was built for.
func (g *Generator) SubarrayRows() int { return g.subarrayRows }

// LocalIndex returns the subarray-local index of a bank-level row address.
func (g *Generator) LocalIndex(row int) int { return row & (g.subarrayRows - 1) }

// InMCR is the MCR detector: it reports whether the row lies in the MCR
// region. The region occupies the rows nearest the sense amplifiers, which
// the paper identifies with the *high* local addresses (50%reg <=> A8=1,
// 25%reg <=> A8A7=11 for 512-row subarrays).
func (g *Generator) InMCR(row int) bool {
	if row < 0 {
		return false
	}
	return g.mode.Enabled() && g.LocalIndex(row) >= g.regionStart
}

// MCRBase is the address changer: for a row inside an MCR it returns the
// MCR address (LSBs don't care, canonicalized to zero); for a normal row it
// returns the row unchanged.
func (g *Generator) MCRBase(row int) int {
	if !g.InMCR(row) {
		return row
	}
	return row &^ (g.mode.K - 1)
}

// GangK returns how many wordlines fire when the given row is activated:
// the mode's K inside an MCR, 1 for a normal row.
func (g *Generator) GangK(row int) int {
	if !g.InMCR(row) {
		return 1
	}
	return g.mode.K
}

// CloneRows returns every physical row whose wordline fires when the given
// row is activated: the K members of its MCR, or just the row itself for a
// normal row.
func (g *Generator) CloneRows(row int) []int { return gangRows(row, g.GangK(row)) }

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
	return g.InMCR(a) && g.InMCR(b) && g.MCRBase(a) == g.MCRBase(b)
}

// RegionRows returns how many rows of one subarray belong to the MCR region.
func (g *Generator) RegionRows() int { return g.subarrayRows - g.regionStart }

// FirstRegionRow returns the first subarray-local index inside the region
// (== SubarrayRows() when the region is empty).
func (g *Generator) FirstRegionRow() int { return g.regionStart }

// InternalAddress models the Fig 7(b) wordline-driver inputs for a row: it
// returns the N-bit true (A) and complement (/A) internal address patterns
// after the address changer, where forcing both bits high on the low
// log2(K) positions selects all K clone wordlines. Bit i of the results is
// the logic level of A_i and /A_i respectively.
func (g *Generator) InternalAddress(row, nbits int) (a, na uint64) {
	r := uint64(row)
	a = r & (1<<nbits - 1)
	na = ^r & (1<<nbits - 1)
	if g.InMCR(row) {
		low := uint64(g.mode.K - 1)
		a |= low
		na |= low
	}
	return a, na
}

// WordlineSelected reports whether the wordline of physical row wl fires for
// the internal address pair (a, na): every driver input must be high, i.e.
// for each bit position the pattern must match either A or /A.
func WordlineSelected(wl int, nbits int, a, na uint64) bool {
	for i := 0; i < nbits; i++ {
		bit := uint64(wl>>i) & 1
		if bit == 1 {
			if a>>i&1 == 0 {
				return false
			}
		} else if na>>i&1 == 0 {
			return false
		}
	}
	return true
}
