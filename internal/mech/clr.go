// CLR-DRAM-like backend (Luo et al., ISCA 2020): a row can operate in
// max-capacity mode (one cell per bit, baseline timing) or be *coupled*
// with its neighbor row into high-performance mode — two cells and two
// sense amplifiers per bit, which slashes sensing, restore and precharge
// time at the cost of the neighbor's capacity. Unlike MCR's fixed bands,
// coupling is a dynamic per-row conversion: hot rows couple up (bounded
// by a per-sub-array budget), and a failing coupled pair can be
// uncoupled back to safe max-capacity operation.
// A coupled pair latches the same data, so — like an MCR clone gang —
// a row hit on one member serves the other.

package mech

import (
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/timing"
)

// CLRConfig parameterizes the capacity/latency coupling backend.
type CLRConfig struct {
	// HotThreshold is the activation count at which a row couples with
	// its neighbor.
	HotThreshold int
	// MaxCoupledFraction bounds the fraction of each sub-array's rows
	// that may sit in coupled (high-performance) state — the capacity
	// the scheme is allowed to trade away.
	MaxCoupledFraction float64
	// ConvertOverheadNS is the in-place conversion cost charged to the
	// triggering activation (isolate, migrate the donor's data, restore).
	ConvertOverheadNS float64
	// TRCDNS/TRASNS are the coupled-row timings: two cells and two sense
	// amplifiers per bit sense and restore far faster than baseline.
	TRCDNS, TRASNS float64
}

// DefaultCLRConfig returns a representative setup following the
// direction and rough magnitude of the CLR-DRAM paper's reductions
// (~60% tRCD, ~50% tRAS), with an eighth of each sub-array convertible.
func DefaultCLRConfig() CLRConfig {
	return CLRConfig{
		HotThreshold:       4,
		MaxCoupledFraction: 0.125,
		ConvertOverheadNS:  50.0,
		TRCDNS:             5.5,
		TRASNS:             17.5,
	}
}

// Validate checks the configuration.
func (c CLRConfig) Validate() error {
	return errors.Join(
		core.Within("dram: CLR HotThreshold", c.HotThreshold, core.Closed, 1, math.MaxInt),
		core.Within("dram: CLR MaxCoupledFraction", c.MaxCoupledFraction, core.OpenLo, 0, 0.5),
		core.Within("dram: CLR ConvertOverheadNS", c.ConvertOverheadNS, core.Closed, 0, maxTimingNS),
		core.Within("dram: CLR TRCDNS", c.TRCDNS, core.OpenLo, 0, maxTimingNS),
		core.Within("dram: CLR TRASNS", c.TRASNS, core.OpenLo, 0, maxTimingNS),
	)
}

// CLR is the capacity/latency coupling backend.
type CLR struct {
	base
	lcfg          CLRConfig
	fast          timing.Params // coupled-pair timing class, derived from the config at construction
	convertCycles int64
	subarray      int
	maxPairs      int // per-sub-array coupling budget, in pairs
	// acts counts activations of uncoupled rows; coupled marks pair base
	// rows (even-aligned) in high-performance state; banned pairs are
	// never re-coupled; pairs counts coupled pairs per sub-array index.
	acts    map[int]int
	coupled map[int]bool
	banned  map[int]bool
	pairs   map[int]int
}

// newCLR builds the backend from a validated configuration.
func newCLR(cfg Config) (*CLR, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	lcfg := *cfg.CLR
	ns := timing.Baseline1x()
	ns.TRCD, ns.TRAS = lcfg.TRCDNS, lcfg.TRASNS
	subarray := cfg.Geom.RowsPerSubarray()
	return &CLR{
		base:          b,
		lcfg:          lcfg,
		fast:          timing.NewParams(ns),
		convertCycles: int64(core.NSToMemCycles(lcfg.ConvertOverheadNS)),
		subarray:      subarray,
		maxPairs:      int(lcfg.MaxCoupledFraction * float64(subarray) / 2),
		acts:          make(map[int]int),
		coupled:       make(map[int]bool),
		banned:        make(map[int]bool),
		pairs:         make(map[int]int),
	}, nil
}

// Name implements Mechanism.
func (c *CLR) Name() string { return "clr" }

// pairBase canonicalizes a row to its even-aligned coupling pair base.
func pairBase(row int) int { return row &^ 1 }

// IsCoupled reports whether a row sits in a coupled pair.
func (c *CLR) IsCoupled(row int) bool { return row >= 0 && c.coupled[pairBase(row)] }

// RowParams serves coupled pairs at the high-performance timing;
// quarantined rows always run the safe baseline.
func (c *CLR) RowParams(row int) (*timing.Params, bool) {
	if c.quarantined[row] {
		return &c.tim.Normal, false
	}
	if c.IsCoupled(row) {
		return &c.fast, false
	}
	return &c.tim.Normal, false
}

// SameGang reports pair sharing: a coupled pair latches one data array,
// so a row hit on either member serves the other.
func (c *CLR) SameGang(a, b int) bool {
	return a >= 0 && b >= 0 && pairBase(a) == pairBase(b) && c.coupled[pairBase(a)]
}

// MaxGang is the coupled pair: rows pairBase(row) and pairBase(row)+1.
func (c *CLR) MaxGang() int { return 2 }

// GangK returns 2 for coupled pairs (both wordlines fire).
func (c *CLR) GangK(row int) int {
	if c.IsCoupled(row) {
		return 2
	}
	return 1
}

// OnActivate is the conversion policy: coupled rows activate fast; an
// uncoupled row crossing the hot threshold converts its pair to
// high-performance mode when the sub-array budget allows, charging the
// migration cost to this activation.
func (c *CLR) OnActivate(row int, now int64) (int64, obs.EventKind, bool) {
	if c.IsCoupled(row) {
		c.stats.FastActivates++
		return 0, 0, false
	}
	if row < 0 || c.banned[pairBase(row)] {
		return 0, 0, false
	}
	c.acts[row]++
	if c.acts[row] < c.lcfg.HotThreshold {
		return 0, 0, false
	}
	sub := row / c.subarray
	if c.pairs[sub] >= c.maxPairs {
		return 0, 0, false
	}
	bse := pairBase(row)
	c.pairs[sub]++
	c.coupled[bse] = true
	delete(c.acts, bse)
	delete(c.acts, bse+1)
	c.stats.Conversions++
	c.stats.CopyCycles += c.convertCycles
	c.stats.CapacityLossRows++ // the donor row's capacity is gone
	return c.convertCycles, obs.EvConvert, true
}

// SetMode implements Mechanism: CLR has no mode register.
func (c *CLR) SetMode(mode mcr.Mode, now int64) error { return noModes(c.Name()) }

// Quarantine uncouples the row's pair (reverting both members to safe
// max-capacity operation), bans it from re-coupling, and demotes both
// members.
func (c *CLR) Quarantine(row int) int {
	if row < 0 {
		return c.quarantineRows([]int{row})
	}
	b := pairBase(row)
	rows := []int{row}
	if c.coupled[b] {
		delete(c.coupled, b)
		c.stats.Reversions++
		rows = []int{b, b + 1}
	}
	c.banned[b] = true // a demoted row's pair must never (re-)couple
	return c.quarantineRows(rows)
}

var _ Mechanism = (*CLR)(nil)
