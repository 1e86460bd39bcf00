// Refresh planning for combined layouts: the multi-band counterpart of
// Scheduler. Each REF command still lands homogeneously in one band (or in
// the normal region), so the controller keeps one tRFC class and one skip
// decision per command — now chosen per band.

package mcr

import "fmt"

// LayoutScheduler plans REF commands for a bank under a combined layout.
type LayoutScheduler struct {
	gen         *LayoutGenerator
	wiring      Wiring
	rowsPerBank int
	counterBits int
	// rows backs the row list of the last plan, one entry per row a REF
	// refreshes in each bank: there is one REF per tREFI per rank for the
	// whole run, and only an attached device hook reads the list. Scratch:
	// every Plan rewrites it before returning it, so it is not checkpointed.
	rows []int
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
		counterBits: lgOf(RefsPerWindow),
		rows:        make([]int, rowsPerBank/RefsPerWindow),
	}, nil
}

// Batch returns rows refreshed per REF per bank.
func (s *LayoutScheduler) Batch() int { return len(s.rows) }

// LayoutRefreshOp extends RefreshOp with the gang size of the refreshed
// band so the device can pick the per-K tRFC class.
type LayoutRefreshOp struct {
	RefreshOp
	K int // gang size of the refreshed rows (1 for normal rows)
	M int // refreshes kept per window for that band
}

// Plan returns the refresh plan for REF command c. The plan's Rows alias
// a buffer the scheduler owns: they are valid until the next Plan.
func (s *LayoutScheduler) Plan(c int) LayoutRefreshOp {
	c &= RefsPerWindow - 1
	low := RefreshRowAddress(s.wiring, c, s.counterBits)
	op := LayoutRefreshOp{RefreshOp: RefreshOp{Counter: c}, K: 1, M: 1}
	band, ok := s.gen.BandFor(low)
	op.InMCR = ok
	if ok {
		op.K, op.M = band.K, band.M
		if band.M < band.K {
			lg := lgOf(band.K)
			var occurrence, group int
			if s.wiring == KtoN1K {
				occurrence = c >> (s.counterBits - lg)
				group = c & (1<<(s.counterBits-lg) - 1)
			} else {
				occurrence = c & (band.K - 1)
				group = c >> lg
			}
			op.Skipped = (occurrence+group)%(band.K/band.M) != 0
		}
	}
	for i := range s.rows {
		s.rows[i] = i<<s.counterBits | low
	}
	op.Rows = s.rows
	return op
}

// LayoutWindowStats summarizes one retention window per band.
type LayoutWindowStats struct {
	Total   int
	PerK    map[int]int // REF commands landing in each band's region
	Skipped map[int]int // skipped commands per band K
}

// Window computes per-window statistics.
func (s *LayoutScheduler) Window() LayoutWindowStats {
	st := LayoutWindowStats{Total: RefsPerWindow, PerK: map[int]int{}, Skipped: map[int]int{}}
	for c := 0; c < RefsPerWindow; c++ {
		op := s.Plan(c)
		st.PerK[op.K]++
		if op.Skipped {
			st.Skipped[op.K]++
		}
	}
	return st
}
