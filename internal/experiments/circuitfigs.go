// Table 3 and Fig 10: the circuit-level artifacts, plus the Fig 8 wiring
// table.

package experiments

import (
	"repro/internal/circuit"
	"repro/internal/mcr"
	"repro/internal/timing"
)

// Table3Row pairs the paper's canonical timing column with the value our
// circuit model derives.
type Table3Row struct {
	K, M                   int
	Paper, Derived         timing.ModeTiming
	TRCDDevPct, TRASDevPct float64 // relative deviation of the derivation
}

// Table3 regenerates Table 3: canonical values alongside the circuit-model
// derivation.
func Table3() ([]Table3Row, error) {
	p := circuit.Default()
	var rows []Table3Row
	for _, t := range timing.Table3() {
		d, err := timing.Derive(p, t.K, t.M)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			K: t.K, M: t.M,
			Paper:      t,
			Derived:    d,
			TRCDDevPct: (d.TRCDNS - t.TRCDNS) / t.TRCDNS * 100,
			TRASDevPct: (d.TRASNS - t.TRASNS) / t.TRASNS * 100,
		})
	}
	return rows, nil
}

// Fig10 returns the activation transients (bitline and cell voltage versus
// time) for 1x, 2x and 4x MCRs, sampled every sampleNS over horizonNS.
func Fig10(horizonNS, sampleNS float64) []*circuit.Transient {
	p := circuit.Default()
	var out []*circuit.Transient
	for _, k := range []int{1, 2, 4} {
		out = append(out, p.Simulate(k, horizonNS, sampleNS))
	}
	return out
}

// Fig8Row is one line of the Fig 8 comparison: worst-case refresh interval
// per MCR size under each wiring, for the paper's 3-bit illustration and
// the real 13-bit REF counter.
type Fig8Row struct {
	K                      int
	KtoK3Bit, KtoN1K3Bit   float64 // ms, 3-bit counter (the figure)
	KtoK13Bit, KtoN1K13Bit float64 // ms, 13-bit REF counter (the device)
}

// Fig8 regenerates the wiring comparison.
func Fig8() []Fig8Row {
	var rows []Fig8Row
	for _, k := range []int{1, 2, 4} {
		rows = append(rows, Fig8Row{
			K:           k,
			KtoK3Bit:    mcr.MaxRefreshIntervalMs(mcr.KtoK, 3, k, timing.RetentionWindowMs),
			KtoN1K3Bit:  mcr.MaxRefreshIntervalMs(mcr.KtoN1K, 3, k, timing.RetentionWindowMs),
			KtoK13Bit:   mcr.MaxRefreshIntervalMs(mcr.KtoK, 13, k, timing.RetentionWindowMs),
			KtoN1K13Bit: mcr.MaxRefreshIntervalMs(mcr.KtoN1K, 13, k, timing.RetentionWindowMs),
		})
	}
	return rows
}
