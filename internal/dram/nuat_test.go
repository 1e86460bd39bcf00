package dram

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/timing"
)

func nuatDevice(t *testing.T) *Device {
	t.Helper()
	cfg := DefaultConfig(mcr.Off())
	n := DefaultNUATConfig()
	cfg.NUAT = &n
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNUATConfigValidate(t *testing.T) {
	if err := DefaultNUATConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []NUATConfig{
		{Bins: 1, MinLevel: 0.8},
		{Bins: 100, MinLevel: 0.8},
		{Bins: 8, MinLevel: 0.5},
		{Bins: 8, MinLevel: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should be rejected", c)
		}
	}
}

func TestNUATExcludesOtherSchemes(t *testing.T) {
	n := DefaultNUATConfig()
	cfg := DefaultConfig(mcrtest.Mode(2, 2, 1))
	cfg.NUAT = &n
	if err := cfg.Validate(); err == nil {
		t.Fatal("NUAT + MCR must be rejected")
	}
	cfg = DefaultConfig(mcr.Off())
	tl := DefaultTLConfig()
	cfg.TL = &tl
	cfg.NUAT = &n
	if err := cfg.Validate(); err == nil {
		t.Fatal("NUAT + TL must be rejected")
	}
}

// The bin-monotonicity invariant lives with the backend now: see
// TestNUATBinsMonotone in internal/mech.

// TestNUATFreshnessTracksRefreshProgress: right after a row's refresh slot
// passes, the row is in the freshest class; just before, in the stalest.
func TestNUATFreshnessTracksRefreshProgress(t *testing.T) {
	d := nuatDevice(t)
	// Row 0's refresh slot under K-to-N-1-K is counter 0.
	// Simulate progress: issue REF with a counter just past the slot.
	d.Refresh(0, 0, 1, 0)
	fresh, _ := d.RowParams(0)
	// Now progress to just before the row's next refresh (counter 8191).
	d.Refresh(0, 1, 8191, 1000)
	stale, _ := d.RowParams(0)
	if fresh.TRCD >= stale.TRCD {
		t.Fatalf("freshly refreshed row must sense faster: %d vs %d", fresh.TRCD, stale.TRCD)
	}
	base := timing.NewParams(timing.Baseline1x())
	if stale.TRCD != base.TRCD {
		t.Fatalf("stale rows must fall back to baseline tRCD, got %d", stale.TRCD)
	}
}

// TestNUATNeverGangsRows: activation touches a single wordline, refresh is
// the normal class, and the capacity is untouched.
func TestNUATNeverGangsRows(t *testing.T) {
	d := nuatDevice(t)
	d.Activate(core.Address{Row: 100}, 0)
	if d.IsRowHitAt(0, 101) {
		t.Fatal("NUAT rows are independent")
	}
	if d.mech.GangK(100) > 1 {
		t.Fatal("no MCRs in NUAT mode")
	}
	_, done := d.Refresh(0, 1, 5, 0)
	if done != int64(d.Timings().Normal.TRFC) {
		t.Fatal("NUAT refresh must take the normal tRFC")
	}
}

// TestNUATKtoKWiring: freshness tracking works under the identity wiring
// too (slot = row low bits directly).
func TestNUATKtoKWiring(t *testing.T) {
	cfg := DefaultConfig(mcr.Off())
	n := DefaultNUATConfig()
	cfg.NUAT = &n
	cfg.Wiring = mcr.KtoK
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Refresh(0, 0, 101, 0) // counter just past row 100's slot (KtoK: slot = 100)
	fresh, _ := d.RowParams(100)
	d.Refresh(0, 1, 99, 100) // counter just before the slot
	stale, _ := d.RowParams(100)
	if fresh.TRCD >= stale.TRCD {
		t.Fatalf("K-to-K freshness broken: %d vs %d", fresh.TRCD, stale.TRCD)
	}
}
