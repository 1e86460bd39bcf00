// Refresh planning: which rows each REF command restores and whether
// Refresh-Skipping elides it, per band of a layout (a simple mode is the
// single-band layout LayoutOf(mode)).

package mcr

import "fmt"

// RefsPerWindow is the JEDEC DDR3 refresh command count per 64 ms window:
// the range of the 13-bit REF counter.
const (
	RefsPerWindow = 1 << counterBits
	counterBits   = 13
)

// LayoutScheduler turns the REF command stream into per-command refresh
// plans for one bank, implementing Fast-Refresh classification and
// Refresh-Skipping.
//
// Model: JEDEC requires 8192 REF commands per window; a bank with R rows
// refreshes R/8192 rows per REF. The 13-bit command counter is wired to the
// row-address LSBs per the wiring method and the batch sub-index covers the
// remaining high row bits, so REF c restores rows base, base+8192, ... below
// R, where base = RefreshRowAddress(wiring, c, 13). Those rows share their
// subarray-local address and hence their band: each REF command lands
// homogeneously in one band (or in the normal region), exactly what lets
// the controller pick one tRFC per command and skip whole commands.
type LayoutScheduler struct {
	gen         *LayoutGenerator
	wiring      Wiring
	rowsPerBank int
}

// NewLayoutScheduler builds the planner.
func NewLayoutScheduler(gen *LayoutGenerator, wiring Wiring, rowsPerBank int) (*LayoutScheduler, error) {
	if gen == nil {
		return nil, fmt.Errorf("mcr: layout scheduler needs a generator")
	}
	if rowsPerBank <= 0 || rowsPerBank&(rowsPerBank-1) != 0 {
		return nil, fmt.Errorf("mcr: rowsPerBank must be a positive power of two, got %d", rowsPerBank)
	}
	if rowsPerBank < RefsPerWindow {
		return nil, fmt.Errorf("mcr: rowsPerBank %d below %d REFs per window is not supported", rowsPerBank, RefsPerWindow)
	}
	return &LayoutScheduler{
		gen:         gen,
		wiring:      wiring,
		rowsPerBank: rowsPerBank,
	}, nil
}

// Batch returns rows refreshed per REF per bank.
func (s *LayoutScheduler) Batch() int { return s.rowsPerBank / RefsPerWindow }

// LayoutRefreshOp describes what one REF command does to each bank of its
// rank.
type LayoutRefreshOp struct {
	Row     int  // base row: the REF restores Row, Row+RefsPerWindow, ... (with their clones)
	InMCR   bool // whether the refreshed rows lie in an MCR band
	Skipped bool // whether Refresh-Skipping suppresses this REF entirely
	K       int  // gang size of the refreshed rows (1 for normal rows)
	M       int  // refreshes kept per window for that band
}

// Plan returns the refresh plan for REF command c (taken modulo the
// window's 8192 commands).
func (s *LayoutScheduler) Plan(c int) LayoutRefreshOp {
	c &= RefsPerWindow - 1
	op := LayoutRefreshOp{Row: RefreshRowAddress(s.wiring, c, counterBits), K: 1, M: 1}
	band, ok := s.gen.BandFor(op.Row)
	op.InMCR = ok
	if ok {
		op.K, op.M = band.K, band.M
		if band.M < band.K {
			// Occurrence index of this MCR's refresh within the window: under
			// K-to-N-1-K wiring the row LSBs come from the counter MSBs; under
			// K-to-K they come from the counter LSBs. The remaining counter
			// bits identify the MCR group.
			lg := lgOf(band.K)
			var occurrence, group int
			if s.wiring == KtoN1K {
				occurrence = c >> (counterBits - lg)
				group = c & (1<<(counterBits-lg) - 1)
			} else {
				occurrence = c & (band.K - 1)
				group = c >> lg
			}
			// Keep M uniformly spaced occurrences out of K (Fig 9: REF S REF S
			// for 2/4x, REF S S S for 1/4x). The per-group phase stagger keeps
			// each MCR's kept refreshes 64/M ms apart while spreading the
			// skipped commands evenly through the window — the natural
			// controller implementation, since it smooths refresh power
			// instead of bunching every skip into the same window quarter.
			op.Skipped = (occurrence+group)%(band.K/band.M) != 0
		}
	}
	return op
}
