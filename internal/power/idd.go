// IDD-based parameter derivation: instead of hand-picking event energies,
// derive them from DDR3 datasheet currents the way Micron's TN-41-01
// calculator does. This makes every constant in Params traceable to a
// datasheet line item.

package power

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/timing"
)

// IDD holds the datasheet currents of one DRAM device (one chip), in
// milliamps, plus the operating point. Names follow JEDEC:
//
//	IDD0  - one-bank activate-precharge current (tRC loop)
//	IDD2N - precharge standby current
//	IDD3N - active standby current
//	IDD2P - precharge power-down current
//	IDD4R - burst read current
//	IDD4W - burst write current
//	IDD5B - burst refresh current
type IDD struct {
	VDD   float64 // volts
	Chips int     // devices per rank (x8 -> 8 chips)

	IDD0, IDD2N, IDD3N, IDD2P, IDD4R, IDD4W, IDD5B float64 // mA per chip

	// Timing context for the conversions (nanoseconds).
	TRCNS    float64 // tRC the IDD0 loop assumes
	TRFCNS   float64 // tRFC for the IDD5B burst
	TBurstNS float64 // data burst duration (BL8 at DDR3-1600: 5 ns)
}

// DefaultIDD returns DDR3-1600 4 Gb x8 datasheet-magnitude currents.
func DefaultIDD() IDD {
	return IDD{
		VDD:   1.5,
		Chips: 8,
		IDD0:  65, IDD2N: 32, IDD3N: 42, IDD2P: 12,
		IDD4R: 150, IDD4W: 155, IDD5B: 200,
		TRCNS:    timing.TRASBaselineNS + timing.TRPBaselineNS,
		TRFCNS:   timing.TRFC4GbNS,
		TBurstNS: 5,
	}
}

// Validate checks the current set.
func (i IDD) Validate() error {
	return errors.Join(
		core.Within("power: VDD", i.VDD, core.OpenLo, 0, math.MaxFloat64),
		core.Within("power: Chips", i.Chips, core.Closed, 1, math.MaxInt),
		// Power-down < precharge standby < active standby < the rest.
		core.Within("power: IDD2P", i.IDD2P, core.Closed, 0, math.MaxFloat64),
		core.Within("power: IDD2N", i.IDD2N, core.OpenLo, i.IDD2P, math.MaxFloat64),
		core.Within("power: IDD3N", i.IDD3N, core.OpenLo, i.IDD2N, math.MaxFloat64),
		core.Within("power: IDD0", i.IDD0, core.OpenLo, i.IDD3N, math.MaxFloat64),
		core.Within("power: IDD4R", i.IDD4R, core.OpenLo, i.IDD3N, math.MaxFloat64),
		core.Within("power: IDD4W", i.IDD4W, core.OpenLo, i.IDD3N, math.MaxFloat64),
		core.Within("power: IDD5B", i.IDD5B, core.OpenLo, i.IDD2N, math.MaxFloat64),
		core.Within("power: TRCNS", i.TRCNS, core.OpenLo, 0, math.MaxFloat64),
		core.Within("power: TRFCNS", i.TRFCNS, core.OpenLo, 0, math.MaxFloat64),
		core.Within("power: TBurstNS", i.TBurstNS, core.OpenLo, 0, math.MaxFloat64),
	)
}

// Derive converts datasheet currents into the event-energy Params the
// model consumes, per the TN-41-01 decomposition:
//
//	E(ACT+PRE) = (IDD0 - IDD3N) * VDD * tRC * chips
//	E(RD)      = (IDD4R - IDD3N) * VDD * tBurst * chips
//	E(WR)      = (IDD4W - IDD3N) * VDD * tBurst * chips
//	E(REF)     = (IDD5B - IDD2N) * VDD * tRFC * chips
//	P(active/standby/power-down) = IDD3N/IDD2N/IDD2P * VDD * chips
//
// The MCR adjustment knobs (RestoreFrac, WordlineOverhead) keep their
// defaults — they are architectural, not datasheet, quantities.
func (i IDD) Derive() (Params, error) {
	if err := i.Validate(); err != nil {
		return Params{}, err
	}
	chips := float64(i.Chips)
	// mA * V * ns = pJ; divide by 1000 for nJ.
	toNJ := func(mA, ns float64) float64 { return mA * i.VDD * ns * chips / 1000 }
	base := Default()
	p := Params{
		EActNJ:           toNJ(i.IDD0-i.IDD3N, i.TRCNS),
		RestoreFrac:      base.RestoreFrac,
		WordlineOverhead: base.WordlineOverhead,
		EReadNJ:          toNJ(i.IDD4R-i.IDD3N, i.TBurstNS),
		EWriteNJ:         toNJ(i.IDD4W-i.IDD3N, i.TBurstNS),
		ERefreshNJ:       toNJ(i.IDD5B-i.IDD2N, i.TRFCNS),
		PActiveMW:        i.IDD3N * i.VDD * chips,
		PStandbyMW:       i.IDD2N * i.VDD * chips,
		PPowerDownMW:     i.IDD2P * i.VDD * chips,
	}
	if err := p.Validate(); err != nil {
		return Params{}, fmt.Errorf("power: derived parameters invalid: %w", err)
	}
	return p, nil
}
