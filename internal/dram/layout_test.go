package dram

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

func combinedLayout(t *testing.T) mcr.Layout {
	t.Helper()
	l, err := mcr.NewLayout(
		mcr.Band{K: 4, M: 4, Region: 0.25},
		mcr.Band{K: 2, M: 2, Region: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func layoutDevice(t *testing.T) *Device {
	t.Helper()
	cfg := DefaultConfig(mcr.Off())
	cfg.Layout = combinedLayout(t)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLayoutConfigValidates(t *testing.T) {
	cfg := DefaultConfig(mcr.Off())
	cfg.Layout = combinedLayout(t)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Layout = mcr.Layout{Bands: []mcr.Band{{K: 3, M: 1, Region: 0.25}}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid layout must be rejected")
	}
}

func TestLayoutTimingClasses(t *testing.T) {
	d := layoutDevice(t)
	tim := d.Timings()
	// Three classes: normal, 2x, 4x.
	for _, k := range []int{1, 2, 4} {
		if _, ok := tim.PerK[k]; !ok {
			t.Fatalf("missing timing class for K=%d", k)
		}
	}
	if tim.PerK[4].TRCD != core.NSToMemCycles(6.90) {
		t.Errorf("4x tRCD = %d cycles", tim.PerK[4].TRCD)
	}
	if tim.PerK[2].TRCD != core.NSToMemCycles(9.94) {
		t.Errorf("2x tRCD = %d cycles", tim.PerK[2].TRCD)
	}
	if tim.PerK[1].TRCD != core.NSToMemCycles(13.75) {
		t.Errorf("normal tRCD = %d cycles", tim.PerK[1].TRCD)
	}
	// The MCR compatibility view points at the largest-K band.
	if tim.MCR.TRCD != tim.PerK[4].TRCD {
		t.Error("Timings.MCR must alias the 4x band")
	}
	// Per-band refresh classes.
	if tim.RefreshPerK[4] != core.NSToMemCycles(180) || tim.RefreshPerK[2] != core.NSToMemCycles(193.33) {
		t.Errorf("per-band tRFC wrong: %+v", tim.RefreshPerK)
	}
}

func TestLayoutRowParams(t *testing.T) {
	d := layoutDevice(t)
	// Local 400 -> 4x band, 300 -> 2x band, 10 -> normal.
	p4, in4 := d.RowParams(400)
	p2, in2 := d.RowParams(300)
	p1, in1 := d.RowParams(10)
	if !in4 || !in2 || in1 {
		t.Fatalf("band detection wrong: %v %v %v", in4, in2, in1)
	}
	if !(p4.TRCD < p2.TRCD && p2.TRCD < p1.TRCD) {
		t.Fatalf("tRCD ordering wrong: %d %d %d", p4.TRCD, p2.TRCD, p1.TRCD)
	}
}

func TestLayoutActivateTiming(t *testing.T) {
	d := layoutDevice(t)
	tim := d.Timings()
	// Activate one row per class in separate banks.
	rows := map[int]core.Address{
		4: {Bank: 0, Row: 400},
		2: {Bank: 1, Row: 300},
		1: {Bank: 2, Row: 10},
	}
	when := int64(0)
	for _, k := range []int{4, 2, 1} {
		d.Activate(rows[k], when)
		when += int64(tim.Normal.TRRD)
	}
	st := d.Stats()
	if st.Activates != 3 || st.MCRActivates != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLayoutRefreshClasses(t *testing.T) {
	d := layoutDevice(t)
	tim := d.Timings()
	// Walk REF counters until each class has been exercised.
	seen := map[int]bool{}
	now := int64(0)
	for c := 0; c < 64 && len(seen) < 3; c++ {
		op, done := d.Refresh(0, 0, c, now)
		if op.Skipped {
			continue
		}
		want := int64(tim.RefreshPerK[op.K])
		if op.K == 1 {
			want = int64(tim.Normal.TRFC)
		}
		if done-now != want {
			t.Fatalf("REF %d (K=%d) took %d cycles, want %d", c, op.K, done-now, want)
		}
		seen[op.K] = true
		now = done
	}
	if len(seen) != 3 {
		t.Fatalf("only exercised classes %v", seen)
	}
}

func TestLayoutRowHitAcrossClones(t *testing.T) {
	d := layoutDevice(t)
	d.Activate(core.Address{Row: 384}, 0) // 4x band base
	for _, r := range []int{384, 385, 386, 387} {
		if !d.IsRowHitAt(0, r) {
			t.Fatalf("clone %d must hit", r)
		}
	}
	if d.IsRowHitAt(0, 388) {
		t.Fatal("row 388 is the next MCR")
	}
}

// TestGeneratorClassifiesEveryMCRDevice: Generator() is the one row
// classifier of a combined-layout device, of a simple-mode device and of
// an MCR device with the mode off; comparator backends have none.
func TestGeneratorClassifiesEveryMCRDevice(t *testing.T) {
	d := layoutDevice(t)
	g := d.Generator()
	if g == nil || len(g.Layout().Bands) != 2 {
		t.Fatal("a combined-layout device must expose its two-band generator")
	}
	for row, k := range map[int]int{0: 1, 255: 1, 256: 2, 383: 2, 384: 4, 511: 4, 512 + 300: 2} {
		if g.KAt(row) != k || d.GangK(row) != k {
			t.Fatalf("row %d: generator K %d, device K %d, want %d", row, g.KAt(row), d.GangK(row), k)
		}
	}
	for _, mode := range []mcr.Mode{mcrtest.Mode(4, 2, 0.5), mcr.Off()} {
		simple, err := New(DefaultConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		if g := simple.Generator(); g == nil || g.Layout().Enabled() != mode.Enabled() || g.KAt(511) != mode.K {
			t.Fatalf("%v device must expose its single-band generator", mode)
		}
	}
	cfg := DefaultConfig(mcr.Off())
	tl := DefaultTLConfig()
	cfg.TL = &tl
	if d, err := New(cfg); err != nil || d.Generator() != nil {
		t.Fatalf("a TL-DRAM device has no MCR generator (err %v)", err)
	}
}

func TestSetModeClearsLayout(t *testing.T) {
	d := layoutDevice(t)
	if err := d.SetMode(mcrtest.Mode(2, 2, 1), 0); err != nil {
		t.Fatal(err)
	}
	if d.Config().Layout.Enabled() {
		t.Fatal("MRS must clear the combined layout")
	}
	if d.Generator().KAt(0) != 2 {
		t.Fatal("device must now run the simple 2x mode")
	}
}
