// NUAT-like charge-aware timing (Shin et al., HPCA 2014 — the paper's
// citation [27]), implemented as a second related-work backend: a
// conventional DRAM whose controller knows how long ago each row was
// refreshed and issues column commands earlier to recently-refreshed
// (charge-rich) rows. No rows are ganged and capacity is untouched; the
// benefit decays across the refresh window and — the MCR paper's core
// criticism — depends on predicting cell charge, which PVT variation
// makes risky. Here the charge model is exact (it is a simulator), so
// this backend shows NUAT in its best light.

package mech

import (
	"errors"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/timing"
)

// NUATConfig parameterizes the charge-aware backend.
type NUATConfig struct {
	// Bins is how many freshness classes the controller distinguishes
	// across the retention window (NUAT's "charge steps").
	Bins int
	// MinLevel is the charge fraction assumed at the end of the window
	// (1 - worst-case droop): the freshest bin assumes full charge, the
	// stalest this level.
	MinLevel float64
}

// DefaultNUATConfig returns a NUAT-like setup with 8 freshness bins and
// the paper's 20% worst-case droop.
func DefaultNUATConfig() NUATConfig {
	return NUATConfig{Bins: 8, MinLevel: 0.8}
}

// Validate checks the configuration.
func (c NUATConfig) Validate() error {
	return errors.Join(
		core.Within("dram: NUAT Bins", c.Bins, core.Closed, 2, 64),
		core.Within("dram: NUAT MinLevel", c.MinLevel, core.Open, 0.5, 1),
	)
}

// NUAT holds the per-bin timing classes and the refresh-progress
// bookkeeping needed to compute a row's freshness.
type NUAT struct {
	base
	ncfg NUATConfig
	bins []timing.Params // index 0 = freshest; derived from the config at construction
	// counter is the global REF progress (total REFs ever issued); the
	// device reports it via NoteRefresh.
	counter int
}

// newNUAT derives the per-bin parameter sets from the circuit model:
// bin i assumes the charge a cell holds i/(Bins-1) of the way through the
// retention window and takes the matching tRCD. tRAS stays at baseline
// (NUAT's restore must still complete fully).
func newNUAT(cfg Config) (*NUAT, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	ncfg := *cfg.NUAT
	p := circuit.Default()
	base := timing.Baseline1x()
	s := &NUAT{base: b, ncfg: ncfg}
	for i := 0; i < ncfg.Bins; i++ {
		frac := float64(i) / float64(ncfg.Bins-1)
		level := 1 - (1-ncfg.MinLevel)*frac
		tRCD, err := p.SenseTimeAt(1, level)
		if err != nil {
			return nil, err
		}
		ns := base
		// Never beat the datasheet floor by more than the model justifies,
		// and never exceed the baseline (stale rows keep standard timing).
		if tRCD < ns.TRCD {
			ns.TRCD = tRCD
		}
		s.bins = append(s.bins, timing.NewParams(ns))
	}
	return s, nil
}

// Name implements Mechanism.
func (s *NUAT) Name() string { return "nuat" }

// binFor returns the freshness bin of a row given the global REF counter:
// how far (in window fractions) the refresh walk has moved past the row's
// slot.
func (s *NUAT) binFor(row int) int {
	// The row's refresh slot within the window: the counter value whose
	// generated row address matches the row's low 13 bits (the batch index
	// covers the rest).
	low := row & (mcr.RefsPerWindow - 1)
	slot := mcr.RefreshRowAddress(s.cfg.Wiring, low, 13) // wiring is involutive for both methods
	elapsed := (s.counter - slot) % mcr.RefsPerWindow
	if elapsed < 0 {
		elapsed += mcr.RefsPerWindow
	}
	bin := elapsed * s.ncfg.Bins / mcr.RefsPerWindow
	if bin >= s.ncfg.Bins {
		bin = s.ncfg.Bins - 1
	}
	return bin
}

// RowParams returns the timing set for a row's current freshness.
func (s *NUAT) RowParams(row int) (*timing.Params, bool) {
	return &s.bins[s.binFor(row)], false
}

// NoteRefresh tracks refresh progress for the charge-aware timing classes
// (the ranks advance in lockstep; the last counter seen is a faithful
// approximation of the window position).
func (s *NUAT) NoteRefresh(counter int) { s.counter = counter }

// OnActivate counts better-than-baseline freshness bins as fast activates.
func (s *NUAT) OnActivate(row int, now int64) (int64, obs.EventKind, bool) {
	if s.bins[s.binFor(row)].TRCD < s.tim.Normal.TRCD {
		s.stats.FastActivates++
	}
	return 0, 0, false
}

// SetMode implements Mechanism: NUAT has no mode register.
func (s *NUAT) SetMode(mode mcr.Mode, now int64) error { return noModes(s.Name()) }

var _ Mechanism = (*NUAT)(nil)
