// TL-DRAM-like alternative scheme (Lee et al., HPCA 2013), implemented as
// a comparison backend: the paper's related-work section contrasts
// MCR-DRAM against tiered-latency DRAM, which splits every bitline with
// isolation transistors into a fast *near* segment (rows close to the
// sense amplifiers, much lower bitline capacitance) and a slightly
// penalized *far* segment. TL-DRAM keeps full capacity but modifies the
// bank array (area overhead); MCR-DRAM trades capacity but leaves the
// array untouched. This model lets the two philosophies race on the same
// simulator.

package mech

import (
	"fmt"
	"math"

	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/timing"
)

// TLConfig parameterizes the TL-DRAM-like backend.
type TLConfig struct {
	// NearRegion is the fraction of each sub-array in the near segment
	// (rows at the high local addresses, nearest the amplifiers).
	NearRegion float64
	// Near segment timings (ns): a short bitline senses and restores much
	// faster. Defaults follow the direction and rough magnitude of the
	// TL-DRAM paper's reported reductions.
	NearTRCDNS, NearTRASNS float64
	// Far segment penalties (ns) added to the baseline: the isolation
	// transistor sits in the far segment's charge-sharing path.
	FarTRCDPenaltyNS, FarTRASPenaltyNS float64
}

// DefaultTLConfig returns a representative near/far split: half the rows
// near, near tRCD/tRAS roughly halved, ~1 ns far penalties.
func DefaultTLConfig() TLConfig {
	return TLConfig{
		NearRegion:       0.5,
		NearTRCDNS:       8.0,
		NearTRASNS:       22.0,
		FarTRCDPenaltyNS: 1.25,
		FarTRASPenaltyNS: 1.25,
	}
}

// Validate checks the TL configuration.
func (c TLConfig) Validate() error {
	inf := math.Inf(1)
	switch {
	case !(0 < c.NearRegion && c.NearRegion < 1):
		return fmt.Errorf("dram: TL near region must be in (0,1), got %g", c.NearRegion)
	case !(0 < c.NearTRCDNS && c.NearTRCDNS < inf) || !(0 < c.NearTRASNS && c.NearTRASNS < inf):
		return fmt.Errorf("dram: TL near timings must be positive and finite")
	case !(0 <= c.FarTRCDPenaltyNS && c.FarTRCDPenaltyNS < inf) || !(0 <= c.FarTRASPenaltyNS && c.FarTRASPenaltyNS < inf):
		return fmt.Errorf("dram: TL far penalties must be non-negative and finite")
	}
	return nil
}

// tlTimings resolves the near/far parameter sets.
func tlTimings(tl TLConfig) (near, far timing.Params) {
	ns := timing.Baseline1x()
	nearNS := ns
	nearNS.TRCD, nearNS.TRAS = tl.NearTRCDNS, tl.NearTRASNS
	farNS := ns
	farNS.TRCD += tl.FarTRCDPenaltyNS
	farNS.TRAS += tl.FarTRASPenaltyNS
	return timing.NewParams(nearNS), timing.NewParams(farNS)
}

// TL is the TL-DRAM-like mechanism backend.
type TL struct {
	base
	tcfg      TLConfig
	nearStart int // first near-segment local index
	subarray  int
	near, far timing.Params // derived from the config at construction
}

// newTL builds the backend from a validated configuration.
func newTL(cfg Config) (*TL, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	tl := *cfg.TL
	near, far := tlTimings(tl)
	subarray := cfg.Geom.RowsPerSubarray()
	return &TL{
		base:      b,
		tcfg:      tl,
		nearStart: subarray - int(tl.NearRegion*float64(subarray)+0.5),
		subarray:  subarray,
		near:      near,
		far:       far,
	}, nil
}

// Name implements Mechanism.
func (t *TL) Name() string { return "tldram" }

// IsNear reports whether a row is in the near segment.
func (t *TL) IsNear(row int) bool {
	return row >= 0 && row&(t.subarray-1) >= t.nearStart
}

// RowParams returns the segment's timing set (never an MCR class).
func (t *TL) RowParams(row int) (*timing.Params, bool) {
	if t.IsNear(row) {
		return &t.near, false
	}
	return &t.far, false
}

// OnActivate counts near-segment activations as fast activates.
func (t *TL) OnActivate(row int, now int64) (int64, obs.EventKind, bool) {
	if t.IsNear(row) {
		t.stats.FastActivates++
	}
	return 0, 0, false
}

// SetMode implements Mechanism: TL-DRAM has no mode register.
func (t *TL) SetMode(mode mcr.Mode, now int64) error { return noModes(t.Name()) }

var _ Mechanism = (*TL)(nil)
