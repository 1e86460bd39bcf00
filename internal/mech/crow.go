// CROW-like copy-row backend (Hassan et al., ISCA 2019): each sub-array
// reserves a handful of spare rows; the controller copies frequently
// activated ("hot") regular rows into a spare, and from then on activates
// row and copy together — two cells drive each bitline, so sensing and
// restore finish early (reduced tRCD/tRAS), much like a 2x MCR gang but
// established dynamically and only for rows that earn it. The copy itself
// costs one in-DRAM row transfer on the triggering activation, and each
// spare consumed is a row of capacity traded away. Where MCR-DRAM fixes
// its clone bands at mode-set time, CROW discovers them from the access
// stream — the shootout quantifies that trade.

package mech

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/timing"
)

// CROWConfig parameterizes the copy-row backend.
type CROWConfig struct {
	// SpareRowsPerSubarray is each sub-array's copy-row budget; once
	// exhausted no further rows of that sub-array are copied.
	SpareRowsPerSubarray int
	// HotThreshold is the activation count at which a row is copied.
	HotThreshold int
	// CopyOverheadNS is the in-DRAM row transfer cost charged to the
	// activation that performs the copy (roughly an extra tRAS + tRP:
	// activate source, restore into the spare, precharge).
	CopyOverheadNS float64
	// TRCDNS/TRASNS are the timings of an activation served by a
	// row+copy pair (two cells per bitline, as in a 2x MCR).
	TRCDNS, TRASNS float64
}

// DefaultCROWConfig returns a representative setup: 8 spares per
// sub-array, rows copied on their 4th activation, copy cost of one full
// row cycle, and the 2x-gang sensing/restore timings.
func DefaultCROWConfig() CROWConfig {
	return CROWConfig{
		SpareRowsPerSubarray: 8,
		HotThreshold:         4,
		CopyOverheadNS:       48.75, // tRAS + tRP of the DDR3 baseline
		TRCDNS:               8.0,
		TRASNS:               24.0,
	}
}

// Validate checks the configuration.
func (c CROWConfig) Validate() error {
	switch {
	case c.SpareRowsPerSubarray < 1:
		return fmt.Errorf("dram: CROW needs at least one spare row per sub-array, got %d", c.SpareRowsPerSubarray)
	case c.HotThreshold < 1:
		return fmt.Errorf("dram: CROW hot threshold must be positive, got %d", c.HotThreshold)
	case c.CopyOverheadNS < 0:
		return fmt.Errorf("dram: CROW copy overhead must be non-negative, got %g", c.CopyOverheadNS)
	case c.TRCDNS <= 0 || c.TRASNS <= 0:
		return fmt.Errorf("dram: CROW copied-row timings must be positive")
	}
	return nil
}

// CROW is the copy-row mechanism backend.
type CROW struct {
	base
	ccfg       CROWConfig
	fast       timing.Params // copied-row timing class, derived from the config at construction
	copyCycles int64
	subarray   int
	// acts counts activations of not-yet-copied rows; copied marks rows
	// with a live copy; banned rows (quarantined) are never re-copied;
	// spares counts consumed copy rows per sub-array index. Rows are
	// per-bank addresses, so hotness aggregates across banks — consistent
	// with the row-indexed band classes everywhere else in the model.
	acts   map[int]int
	copied map[int]bool
	banned map[int]bool
	spares map[int]int
}

// newCROW builds the backend from a validated configuration.
func newCROW(cfg Config) (*CROW, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	ccfg := *cfg.CROW
	ns := timing.Baseline1x(cfg.FourGb)
	ns.TRCD, ns.TRAS = ccfg.TRCDNS, ccfg.TRASNS
	return &CROW{
		base:       b,
		ccfg:       ccfg,
		fast:       timing.NewParams(ns),
		copyCycles: int64(core.NSToMemCycles(ccfg.CopyOverheadNS)),
		subarray:   cfg.Geom.RowsPerSubarray(),
		acts:       make(map[int]int),
		copied:     make(map[int]bool),
		banned:     make(map[int]bool),
		spares:     make(map[int]int),
	}, nil
}

// Name implements Mechanism.
func (c *CROW) Name() string { return "crow" }

// IsCopied reports whether a row currently has a live copy row.
func (c *CROW) IsCopied(row int) bool { return c.copied[row] }

// RowParams serves copied rows at the row+copy pair timing; everything
// else (including quarantined rows) runs the baseline.
func (c *CROW) RowParams(row int) (*timing.Params, bool) {
	if c.copied[row] {
		return &c.fast, false
	}
	return &c.tim.Normal, false
}

// OnActivate is the copy policy: already-copied rows activate fast; a
// not-yet-copied row that crosses the hot threshold is copied into a
// spare of its sub-array (when the budget allows), charging the transfer
// cost to this activation.
func (c *CROW) OnActivate(row int, now int64) (int64, obs.EventKind, bool) {
	if c.copied[row] {
		c.stats.FastActivates++
		return 0, 0, false
	}
	if c.banned[row] || row < 0 {
		return 0, 0, false
	}
	c.acts[row]++
	if c.acts[row] < c.ccfg.HotThreshold {
		return 0, 0, false
	}
	sub := row / c.subarray
	if c.spares[sub] >= c.ccfg.SpareRowsPerSubarray {
		return 0, 0, false
	}
	c.spares[sub]++
	c.copied[row] = true
	delete(c.acts, row)
	c.stats.Copies++
	c.stats.CopyCycles += c.copyCycles
	c.stats.CapacityLossRows++
	return c.copyCycles, obs.EvCopy, true
}

// SetMode implements Mechanism: CROW has no mode register.
func (c *CROW) SetMode(mode mcr.Mode, now int64) error { return noModes(c.Name()) }

// Quarantine demotes the row to baseline operation: its copy (if any) is
// discarded — the spare stays consumed, the pairing was what failed —
// and the row is banned from re-copying.
func (c *CROW) Quarantine(row int) int {
	if c.copied[row] {
		delete(c.copied, row)
		c.stats.Reversions++
	}
	if row >= 0 && !c.banned[row] {
		c.banned[row] = true
	}
	return c.quarantineRows([]int{row})
}

var _ Mechanism = (*CROW)(nil)
