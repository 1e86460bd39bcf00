// Package power is the DRAM energy model: a Micron-TN-41-01-style
// decomposition into activate/precharge, read/write burst, refresh and
// background components, with the MCR-specific adjustments the paper's
// Sec. 6.4 describes — a small multi-wordline overhead per MCR activate,
// restore energy truncated by Early-Precharge and Fast-Refresh, refresh
// energy removed by Refresh-Skipping, and a low-power (power-down) state
// entered during idle stretches.
//
// Absolute joules follow DDR3 x8 4 Gb datasheet magnitudes but the paper's
// EDP *reductions* depend only on the ratios, which tests pin.
package power

import (
	"errors"
	"math"

	"repro/internal/core"
)

// Params are per-rank energy/power constants.
type Params struct {
	// EActNJ is the activate+precharge pair energy of a normal row, per
	// ACT, for the whole rank (all chips), in nanojoules.
	EActNJ float64
	// RestoreFrac is the fraction of EActNJ spent in the restore phase —
	// the part Early-Precharge truncates proportionally to tRAS.
	RestoreFrac float64
	// WordlineOverhead is the extra activation energy per additional
	// ganged wordline, as a fraction of EActNJ (the paper calls it small
	// compared to the sense amplifiers).
	WordlineOverhead float64
	// EReadNJ / EWriteNJ are per-burst column energies.
	EReadNJ  float64
	EWriteNJ float64
	// ERefreshNJ is the energy of one full-restore REF command (all banks
	// of the rank), scaled by the tRFC ratio for Fast-Refresh.
	ERefreshNJ float64
	// PActiveMW / PStandbyMW / PPowerDownMW are background powers for a
	// rank with any bank open / all banks closed / in power-down.
	PActiveMW    float64
	PStandbyMW   float64
	PPowerDownMW float64
}

// Default returns DDR3-1600 4 Gb x8, 8-chip rank magnitudes.
func Default() Params {
	return Params{
		EActNJ:           20,
		RestoreFrac:      0.55,
		WordlineOverhead: 0.03,
		EReadNJ:          13,
		EWriteNJ:         14,
		ERefreshNJ:       600,
		PActiveMW:        380,
		PStandbyMW:       250,
		PPowerDownMW:     55,
	}
}

// Validate checks the parameters. Every one must be finite: a NaN or an
// infinity would reach the energy results and fail their JSON encoding.
func (p Params) Validate() error {
	return errors.Join(
		core.Within("power: EActNJ", p.EActNJ, core.OpenLo, 0, math.MaxFloat64),
		core.Within("power: RestoreFrac", p.RestoreFrac, core.Closed, 0, 1),
		core.Within("power: WordlineOverhead", p.WordlineOverhead, core.Closed, 0, 0.5),
		core.Within("power: EReadNJ", p.EReadNJ, core.OpenLo, 0, math.MaxFloat64),
		core.Within("power: EWriteNJ", p.EWriteNJ, core.OpenLo, 0, math.MaxFloat64),
		core.Within("power: ERefreshNJ", p.ERefreshNJ, core.OpenLo, 0, math.MaxFloat64),
		core.Within("power: PActiveMW", p.PActiveMW, core.Closed, 0, math.MaxFloat64),
		core.Within("power: PStandbyMW", p.PStandbyMW, core.Closed, p.PPowerDownMW, p.PActiveMW),
		core.Within("power: PPowerDownMW", p.PPowerDownMW, core.Closed, 0, math.MaxFloat64),
	)
}

// Usage is the activity summary one simulation hands to the model.
type Usage struct {
	// Event counts.
	NormalActs int64 // activates of normal rows
	MCRActs    int64 // activates of MCR rows
	Reads      int64
	Writes     int64
	NormalRefs int64 // full-restore REF commands
	MCRRefs    int64 // Fast-Refresh REF commands
	// Timing context.
	MCRRows          int     // K of the MCR mode (1 when off)
	MCRTRASRatio     float64 // tRAS(MCR)/tRAS(normal), truncates restore energy
	MCRTRFCRatio     float64 // tRFC(MCR)/tRFC(normal)
	ElapsedMemCycles int64
	// Background occupancy, rank-cycles in each state (sum over ranks).
	ActiveCycles    int64
	StandbyCycles   int64
	PowerDownCycles int64
}

// Breakdown is the per-component energy result in nanojoules.
type Breakdown struct {
	ActivateNJ   float64
	ReadWriteNJ  float64
	RefreshNJ    float64
	BackgroundNJ float64
}

// TotalNJ sums the components.
func (b Breakdown) TotalNJ() float64 {
	return b.ActivateNJ + b.ReadWriteNJ + b.RefreshNJ + b.BackgroundNJ
}

// Energy evaluates the model for one simulation's usage.
func (p Params) Energy(u Usage) Breakdown {
	var b Breakdown
	// Normal activates: full restore.
	b.ActivateNJ += float64(u.NormalActs) * p.EActNJ
	// MCR activates: extra wordlines, truncated restore.
	k := float64(u.MCRRows)
	if k < 1 {
		k = 1
	}
	ratio := u.MCRTRASRatio
	if ratio <= 0 {
		ratio = 1
	}
	perMCR := p.EActNJ * (1 + p.WordlineOverhead*(k-1)) * (1 - p.RestoreFrac + p.RestoreFrac*ratio)
	b.ActivateNJ += float64(u.MCRActs) * perMCR

	b.ReadWriteNJ = float64(u.Reads)*p.EReadNJ + float64(u.Writes)*p.EWriteNJ

	refRatio := u.MCRTRFCRatio
	if refRatio <= 0 {
		refRatio = 1
	}
	b.RefreshNJ = float64(u.NormalRefs)*p.ERefreshNJ + float64(u.MCRRefs)*p.ERefreshNJ*refRatio

	toNJ := core.MemCycleNS // 1 mW * 1 ns = 1e-12 J = 1e-3 nJ
	b.BackgroundNJ = (float64(u.ActiveCycles)*p.PActiveMW +
		float64(u.StandbyCycles)*p.PStandbyMW +
		float64(u.PowerDownCycles)*p.PPowerDownMW) * toNJ * 1e-3
	return b
}

// EDP returns the energy-delay product in nanojoule-seconds for a run that
// took elapsed memory cycles and consumed the given energy.
func EDP(totalNJ float64, elapsedMemCycles int64) float64 {
	return totalNJ * core.MemCyclesToNS(elapsedMemCycles) * 1e-9
}
