// Package timing defines the DRAM timing parameter sets used by the
// simulator: the DDR3-1600 baseline of the paper's Table 4 system and the
// MCR-mode timings of Table 3 (tRCD/tRAS/tRFC per mode, obtained by the
// authors from SPICE and reproduced here both as canonical constants and —
// for validation — by the internal/circuit model).
//
// All Params fields are in memory-clock cycles (800 MHz, 1.25 ns); the
// nanosecond sources are documented next to each derivation.
package timing

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
)

// RetentionWindowMs is the canonical worst-case cell retention window in
// milliseconds (64 ms at JEDEC normal temperature): the refresh machinery,
// the integrity checker and the Fig 8 wiring analysis all derive their
// intervals from it. Defined in internal/core (which sits below
// internal/circuit in the import graph) and re-exported here with the rest
// of the timing vocabulary.
const RetentionWindowMs = core.RetentionWindowMs

// Normal-row (1/1x) nanosecond baselines of the simulated DDR3-1600
// device, Table 3 top row. Every other package that needs one of these
// values must reference it here — mcrlint's timingliteral check flags
// re-typed copies.
const (
	TRCDBaselineNS = 13.75 // ACTIVATE -> READ/WRITE
	TRASBaselineNS = 35.0  // ACTIVATE -> PRECHARGE
	TRPBaselineNS  = 13.75 // PRECHARGE -> ACTIVATE
	TRFC4GbNS      = 260.0 // REFRESH cycle time, 4 Gb device
)

// Params is one complete set of DRAM timing constraints in memory cycles.
type Params struct {
	TRCD   int // ACTIVATE -> READ/WRITE
	TRAS   int // ACTIVATE -> PRECHARGE
	TRP    int // PRECHARGE -> ACTIVATE
	TRC    int // ACTIVATE -> ACTIVATE (same bank) = tRAS + tRP
	TCAS   int // READ -> data (CL)
	TCWD   int // WRITE -> data (CWL)
	TBURST int // data burst length on the bus (BL8 = 4 cycles)
	TCCD   int // column command to column command
	TRRD   int // ACTIVATE -> ACTIVATE (different bank, same rank)
	TFAW   int // rolling four-activate window
	TWTR   int // end of write data -> READ (same rank)
	TRTP   int // READ -> PRECHARGE
	TWR    int // end of write data -> PRECHARGE
	TRTRS  int // rank-to-rank switch penalty
	TREFI  int // average REFRESH interval
	TRFC   int // REFRESH -> next command (per refreshed mode; see RefreshCost)
}

// DDR3NS holds the nanosecond-denominated DDR3-1600 baseline constraints of
// the simulated device (1x, normal rows). tRCD/tRAS/tRFC follow Table 3,
// the rest are standard DDR3-1600 values (same set USIMM ships).
type DDR3NS struct {
	TRCD, TRAS, TRP, TRFC float64
}

// Baseline1x returns the normal-row nanosecond timings of the simulated
// device. Its chips are 4 Gb, as in both of the paper's systems, so tRFC is
// Table 3's 260 ns (the 1 Gb column is table data only).
func Baseline1x() DDR3NS {
	return DDR3NS{TRCD: TRCDBaselineNS, TRAS: TRASBaselineNS, TRP: TRPBaselineNS, TRFC: TRFC4GbNS}
}

// NewParams assembles a cycle-denominated parameter set from nanosecond
// tRCD/tRAS/tRP/tRFC, filling in the fixed DDR3-1600 column/bus constraints.
func NewParams(ns DDR3NS) Params {
	p := Params{
		TRCD:   core.NSToMemCycles(ns.TRCD),
		TRAS:   core.NSToMemCycles(ns.TRAS),
		TRP:    core.NSToMemCycles(ns.TRP),
		TCAS:   11,
		TCWD:   8,
		TBURST: 4,
		TCCD:   4,
		TRRD:   core.NSToMemCycles(6.0),
		TFAW:   core.NSToMemCycles(30.0),
		TWTR:   core.NSToMemCycles(7.5),
		TRTP:   core.NSToMemCycles(7.5),
		TWR:    core.NSToMemCycles(15.0),
		TRTRS:  2,
		TREFI:  core.NSToMemCycles(7812.5),
		TRFC:   core.NSToMemCycles(ns.TRFC),
	}
	p.TRC = p.TRAS + p.TRP
	return p
}

// ModeTiming is one Table 3 column: the timing constraints of an M/Kx MCR.
type ModeTiming struct {
	K, M    int
	TRCDNS  float64
	TRASNS  float64
	TRFC1Gb float64
	TRFC4Gb float64
}

// Table3 returns the paper's Table 3, the canonical SPICE-derived timing
// constraints for every supported M/Kx mode (including the 1/1x normal-row
// column). The simulator consumes these values, exactly as the paper's
// USIMM setup did.
func Table3() []ModeTiming {
	return []ModeTiming{
		{K: 1, M: 1, TRCDNS: 13.75, TRASNS: 35.00, TRFC1Gb: 110.00, TRFC4Gb: 260.00},
		{K: 2, M: 1, TRCDNS: 9.94, TRASNS: 37.52, TRFC1Gb: 118.46, TRFC4Gb: 280.00},
		{K: 2, M: 2, TRCDNS: 9.94, TRASNS: 21.46, TRFC1Gb: 81.79, TRFC4Gb: 193.33},
		{K: 4, M: 1, TRCDNS: 6.90, TRASNS: 46.51, TRFC1Gb: 138.21, TRFC4Gb: 326.67},
		{K: 4, M: 2, TRCDNS: 6.90, TRASNS: 22.78, TRFC1Gb: 84.62, TRFC4Gb: 200.00},
		{K: 4, M: 4, TRCDNS: 6.90, TRASNS: 20.00, TRFC1Gb: 76.15, TRFC4Gb: 180.00},
	}
}

// Lookup returns the Table 3 timings for an M/Kx mode. Supported (K, M)
// pairs are K in {1,2,4} with 1 <= M <= K and M a power of two.
func Lookup(k, m int) (ModeTiming, error) {
	for _, t := range Table3() {
		if t.K == k && t.M == m {
			return t, nil
		}
	}
	return ModeTiming{}, fmt.Errorf("timing: no Table 3 entry for mode %d/%dx", m, k)
}

// Derive recomputes a Table 3 column from the circuit model instead of the
// canonical constants — the validation path exercised by tests and by
// experiments.Table3 (reproduce -fig 3). It returns nanosecond timings.
func Derive(p circuit.Params, k, m int) (ModeTiming, error) {
	tRCD, err := p.DeriveTRCD(k)
	if err != nil {
		return ModeTiming{}, err
	}
	tRAS, err := p.DeriveTRAS(k, m)
	if err != nil {
		return ModeTiming{}, err
	}
	tRC := tRAS + p.PrechargeTime()
	return ModeTiming{
		K: k, M: m,
		TRCDNS:  tRCD,
		TRASNS:  tRAS,
		TRFC1Gb: circuit.TRFC1Gb.DeriveTRFC(tRC),
		TRFC4Gb: circuit.TRFC4Gb.DeriveTRFC(tRC),
	}, nil
}
