// Package dram is a cycle-accurate DDR3 device model with pluggable
// latency mechanisms: per bank state machines enforcing every JEDEC
// timing constraint (tRCD, tRAS, tRP, tRC, tCCD, tRRD, tFAW, tWTR, tRTP,
// tWR, rank-to-rank switch, tREFI, tRFC), an auto-refresh counter with
// the paper's wiring methods, and per-row timing classes delegated to a
// mech.Mechanism backend — the paper's MCR-DRAM (relaxed Table 3
// constraints for clone-row bands, combined 2x+4x layouts), or one of
// the related-work comparators (TL-DRAM, NUAT, CLR-DRAM).
//
// The device is passive: the memory controller asks an Earliest* gate
// and issues once it has passed; the model updates its bookkeeping and
// does not check the command again. The controller's scheduler owns
// legality, and tests check it with the protocol oracle of
// internal/dram/dramtest.
package dram

import (
	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mech"
)

// Config describes one device instance and selects its mechanism backend
// (see mech.Config, which owns the type and its validation).
type Config = mech.Config

// DefaultConfig returns the paper's single-core baseline system with the
// given MCR-mode and all mechanisms on.
func DefaultConfig(mode mcr.Mode) Config {
	return Config{
		Geom:   core.SingleCoreGeometry(),
		Mode:   mode,
		Wiring: mcr.KtoN1K,
		Mech:   mech.AllToggles(),
	}
}

// ResolveTimings derives the per-class timings from the configuration
// (see mech.ResolveTimings).
func ResolveTimings(c Config) (mech.Timings, error) { return mech.ResolveTimings(c) }
