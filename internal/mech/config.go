// Device configuration and mechanism selection. Config is the single
// source of truth for which latency mechanism a device runs: the MCR
// machinery (Mode/Layout), or exactly one of the comparator backends
// (TL, NUAT, CLR). dram.Config aliases this type, so the JSON
// shape — which run-plan memoization keys marshal — is owned here; the
// comparator pointers carry omitempty so configurations that do not use
// them keep byte-identical keys.

package mech

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mcr"
)

// Toggles switches the paper's three latency mechanisms plus
// Refresh-Skipping, for the Fig 17 ablation.
type Toggles struct {
	EarlyAccess     bool // reduced tRCD for MCR rows
	EarlyPrecharge  bool // reduced tRAS for MCR rows
	FastRefresh     bool // reduced tRFC for MCR refreshes
	RefreshSkipping bool // honor the M/Kx skip schedule
}

// AllToggles enables everything (the paper's default MCR-DRAM).
func AllToggles() Toggles {
	return Toggles{EarlyAccess: true, EarlyPrecharge: true, FastRefresh: true, RefreshSkipping: true}
}

// Config describes one device instance and selects its mechanism.
type Config struct {
	Geom core.Geometry
	// Mode is the simple single-band MCR-mode [M/Kx/L%reg].
	Mode mcr.Mode
	// Layout, when enabled, overrides Mode with a combined 2x+4x layout
	// (paper Sec. 4.4).
	Layout mcr.Layout
	// TL, when non-nil, selects the TL-DRAM-like comparison backend
	// (near/far bitline segments, full capacity, bank-array area
	// overhead). Mutually exclusive with Mode/Layout and every other
	// comparator.
	TL *TLConfig
	// NUAT, when non-nil, selects the NUAT-like comparison backend
	// (charge-aware tRCD on a conventional DRAM).
	NUAT *NUATConfig
	// CLR, when non-nil, selects the CLR-DRAM-like backend (dynamic
	// per-row capacity/latency coupling).
	CLR    *CLRConfig `json:",omitempty"`
	Wiring mcr.Wiring
	Mech   Toggles
}

// EffectiveLayout returns the MCR layout actually in force: Layout when
// enabled, otherwise the single band implied by Mode.
func (c Config) EffectiveLayout() mcr.Layout {
	if c.Layout.Enabled() {
		return c.Layout
	}
	return mcr.LayoutOf(c.Mode)
}

// comparators lists the selected non-MCR backends by name.
func (c Config) comparators() []string {
	var names []string
	if c.TL != nil {
		names = append(names, "TL")
	}
	if c.NUAT != nil {
		names = append(names, "NUAT")
	}
	if c.CLR != nil {
		names = append(names, "CLR")
	}
	return names
}

// Validate checks the configuration for consistency, including mechanism
// selection: at most one comparator backend, and none alongside MCR
// modes or layouts.
func (c Config) Validate() error {
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	if names := c.comparators(); len(names) > 0 {
		if len(names) > 1 {
			return fmt.Errorf("dram: comparator schemes are mutually exclusive, got %v", names)
		}
		if c.Layout.Enabled() || c.Mode.Enabled() {
			return fmt.Errorf("dram: the %s-like scheme excludes MCR modes and layouts", names[0])
		}
	}
	if c.TL != nil {
		if err := c.TL.Validate(); err != nil {
			return err
		}
	}
	if c.NUAT != nil {
		if err := c.NUAT.Validate(); err != nil {
			return err
		}
	}
	if c.CLR != nil {
		if err := c.CLR.Validate(); err != nil {
			return err
		}
	}
	if c.Layout.Enabled() {
		if _, err := mcr.NewLayout(c.Layout.Bands...); err != nil {
			return err
		}
	} else if err := c.Mode.Validate(); err != nil {
		return err
	}
	if c.Geom.Rows < mcr.RefsPerWindow {
		return fmt.Errorf("dram: %d rows per bank is below the %d REF commands per window", c.Geom.Rows, mcr.RefsPerWindow)
	}
	return nil
}
