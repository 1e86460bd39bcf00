// Package dram is a cycle-accurate DDR3 device model with pluggable
// latency mechanisms: per bank state machines enforcing every JEDEC
// timing constraint (tRCD, tRAS, tRP, tRC, tCCD, tRRD, tFAW, tWTR, tRTP,
// tWR, rank-to-rank switch, tREFI, tRFC), an auto-refresh counter with
// the paper's wiring methods, and per-row timing classes delegated to a
// mech.Mechanism backend — the paper's MCR-DRAM (relaxed Table 3
// constraints for clone-row bands, combined 2x+4x layouts), or one of
// the related-work comparators (TL-DRAM, NUAT, CLR-DRAM).
//
// The device is passive: the memory controller asks CanIssue and then
// Issue; the model validates legality and updates its bookkeeping.
package dram

import (
	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mech"
)

// Mechanisms toggles the paper's three latency mechanisms plus
// Refresh-Skipping, for the Fig 17 ablation.
type Mechanisms = mech.Toggles

// AllMechanisms enables everything (the paper's default MCR-DRAM).
func AllMechanisms() Mechanisms { return mech.AllToggles() }

// Config describes one device instance and selects its mechanism backend
// (see mech.Config, which owns the type and its validation).
type Config = mech.Config

// Timings bundles the resolved per-class timing parameter sets of a
// device (owned by package mech).
type Timings = mech.Timings

// TLConfig parameterizes the TL-DRAM-like backend.
type TLConfig = mech.TLConfig

// NUATConfig parameterizes the NUAT-like charge-aware backend.
type NUATConfig = mech.NUATConfig

// CLRConfig parameterizes the CLR-DRAM-like coupling backend.
type CLRConfig = mech.CLRConfig

// DefaultConfig returns the paper's single-core baseline system with the
// given MCR-mode and all mechanisms on.
func DefaultConfig(mode mcr.Mode) Config {
	return Config{
		Geom:   core.SingleCoreGeometry(),
		Mode:   mode,
		Wiring: mcr.KtoN1K,
		Mech:   AllMechanisms(),
	}
}

// DefaultTLConfig returns a representative 50%-near TL-DRAM-like split.
func DefaultTLConfig() TLConfig { return mech.DefaultTLConfig() }

// DefaultNUATConfig returns the 8-bin, 20%-droop charge-aware setup.
func DefaultNUATConfig() NUATConfig { return mech.DefaultNUATConfig() }

// DefaultCLRConfig returns the representative coupling setup.
func DefaultCLRConfig() CLRConfig { return mech.DefaultCLRConfig() }

// ResolveTimings derives the per-class timings from the configuration
// (see mech.ResolveTimings).
func ResolveTimings(c Config) (Timings, error) { return mech.ResolveTimings(c) }
