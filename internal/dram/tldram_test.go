package dram

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/mech"
	"repro/internal/timing"
)

func tlDevice(t *testing.T) *Device {
	t.Helper()
	cfg := DefaultConfig(mcr.Off())
	tl := mech.DefaultTLConfig()
	cfg.TL = &tl
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTLConfigValidate(t *testing.T) {
	if err := mech.DefaultTLConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []mech.TLConfig{
		{NearRegion: 0, NearTRCDNS: 8, NearTRASNS: 22},
		{NearRegion: 1, NearTRCDNS: 8, NearTRASNS: 22},
		{NearRegion: 0.5, NearTRCDNS: 0, NearTRASNS: 22},
		{NearRegion: 0.5, NearTRCDNS: 8, NearTRASNS: 22, FarTRCDPenaltyNS: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should be rejected", c)
		}
	}
}

func TestTLExcludesMCR(t *testing.T) {
	cfg := DefaultConfig(mcrtest.Mode(4, 4, 1))
	tl := mech.DefaultTLConfig()
	cfg.TL = &tl
	if err := cfg.Validate(); err == nil {
		t.Fatal("TL + MCR mode must be rejected")
	}
}

func TestTLSegmentTimings(t *testing.T) {
	d := tlDevice(t)
	// Local 400 is near (top half), 100 is far.
	near, isMCR := d.RowParams(400)
	if isMCR {
		t.Fatal("TL rows are not MCRs")
	}
	far, _ := d.RowParams(100)
	if near.TRCD != core.NSToMemCycles(8.0) {
		t.Errorf("near tRCD = %d cycles", near.TRCD)
	}
	base := timing.NewParams(timing.Baseline1x())
	if far.TRCD <= base.TRCD {
		t.Error("far segment must pay the isolation penalty")
	}
	if tl := d.mech.(*mech.TL); !tl.IsNear(400) || tl.IsNear(100) {
		t.Fatal("segment classification wrong")
	}
}

func TestTLNoClonesNoSkipping(t *testing.T) {
	d := tlDevice(t)
	d.Activate(core.Address{Row: 400}, 0)
	if d.IsRowHitAt(0, 401) {
		t.Fatal("TL rows are independent; no clone hits")
	}
	// Refresh: always the normal class, never skipped.
	op, done := d.Refresh(0, 1, 0, 0)
	if op.Skipped || op.InMCR {
		t.Fatalf("TL refresh misclassified: %+v", op)
	}
	if done != int64(d.Timings().Normal.TRFC) {
		t.Fatal("TL refresh must take the normal tRFC")
	}
}

func TestTLFullCapacityTiming(t *testing.T) {
	d := tlDevice(t)
	tim := d.Timings()
	a := core.Address{Row: 500} // near segment
	d.Activate(a, 0)
	nearP, _ := d.RowParams(500)
	if d.canRead(a, int64(nearP.TRCD)-1) {
		t.Fatal("near read before its tRCD")
	}
	if !d.canRead(a, int64(nearP.TRCD)) {
		t.Fatal("near read at its tRCD must be legal")
	}
	if nearP.TRCD >= tim.Normal.TRCD {
		t.Fatal("near segment must be faster than baseline")
	}
}
