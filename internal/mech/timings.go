// Per-class timing resolution (moved here from package dram so every
// mechanism backend derives its classes through one path).

package mech

import (
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/timing"
)

// Timings bundles the resolved per-class timing parameter sets of a device.
type Timings struct {
	Normal timing.Params // normal rows (and the whole device when MCR is off)
	MCR    timing.Params // rows of the most aggressive (largest K) band
	// RefreshMCRCycles is tRFC (cycles) for a REF command landing in the
	// largest-K band; Normal.TRFC covers normal-row REFs.
	RefreshMCRCycles int
	// PerK maps each band's K (and 1 for normal rows) to its parameter
	// set; RefreshPerK maps it to the tRFC in cycles.
	PerK        map[int]timing.Params
	RefreshPerK map[int]int
}

// bandTimings resolves one band's column timings and refresh cost under
// the mechanism toggles and wiring.
func bandTimings(c Config, k, m int) (timing.Params, int, error) {
	// Effective refreshes per window actually delivered to the band's cells.
	mEff := k
	if c.Mech.RefreshSkipping {
		mEff = m
	}
	full, err := timing.Lookup(k, 1) // full-restore column for this K
	if err != nil {
		return timing.Params{}, 0, err
	}
	eff, err := timing.Lookup(k, mEff)
	if err != nil {
		return timing.Params{}, 0, err
	}

	ns := timing.Baseline1x()
	if c.Mech.EarlyAccess {
		ns.TRCD = eff.TRCDNS
	}
	if c.Mech.EarlyPrecharge {
		if c.Wiring == mcr.KtoN1K {
			ns.TRAS = eff.TRASNS
		} else {
			// Ablation path: non-uniform refresh spacing. Derive tRAS from
			// the circuit model at the actual worst-case interval.
			interval := mcr.MaxRefreshIntervalMs(c.Wiring, 13, k, timing.RetentionWindowMs) // 13-bit REF counter
			tras, err := circuit.Default().RestoreTime(k, interval)
			if err != nil {
				return timing.Params{}, 0, err
			}
			ns.TRAS = tras
		}
	} else {
		ns.TRAS = full.TRASNS // must fully restore K cells
	}

	refNS := full.TRFC4Gb
	if c.Mech.FastRefresh && c.Mech.EarlyPrecharge && c.Wiring == mcr.KtoN1K {
		refNS = eff.TRFC4Gb
	}
	return timing.NewParams(ns), core.NSToMemCycles(refNS), nil
}

// ResolveTimings derives the per-class timings from the configuration,
// honoring the mechanism toggles:
//
//   - Early-Access off  -> MCR rows keep the baseline tRCD.
//   - Early-Precharge off -> MCR rows must fully restore; with K cells per
//     sense amplifier that is *slower* than the baseline (the 1/Kx column
//     of Table 3), which is why Early-Access alone buys little (Fig 17).
//   - Refresh-Skipping off -> cells see the full K refreshes per window, so
//     Early-Precharge uses the M=K interval regardless of the band's M.
//   - Fast-Refresh off -> MCR refreshes restore fully (1/Kx tRFC class).
//   - K-to-K wiring (ablation) -> the worst-case refresh interval barely
//     shrinks, so the Early-Precharge budget is recomputed from the circuit
//     model instead of Table 3.
func ResolveTimings(c Config) (Timings, error) {
	if err := c.Validate(); err != nil {
		return Timings{}, err
	}
	return resolveTimings(c)
}

// resolveTimings is ResolveTimings on a configuration already validated.
func resolveTimings(c Config) (Timings, error) {
	base := timing.NewParams(timing.Baseline1x())
	t := Timings{
		Normal:           base,
		MCR:              base,
		RefreshMCRCycles: base.TRFC,
		PerK:             map[int]timing.Params{1: base},
		RefreshPerK:      map[int]int{1: base.TRFC},
	}
	layout := c.EffectiveLayout()
	maxK := layout.MaxK()
	for _, b := range layout.Bands {
		p, ref, err := bandTimings(c, b.K, b.M)
		if err != nil {
			return Timings{}, err
		}
		t.PerK[b.K] = p
		t.RefreshPerK[b.K] = ref
		if b.K == maxK {
			t.MCR = p
			t.RefreshMCRCycles = ref
		}
	}
	return t, nil
}
