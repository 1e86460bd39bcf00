package dram

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

func smallGeometry() core.Geometry {
	g := core.SingleCoreGeometry()
	return g
}

func newDevice(t *testing.T, mode mcr.Mode, mech Mechanisms) *Device {
	t.Helper()
	cfg := DefaultConfig(mode)
	cfg.Mech = mech
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig(mcrtest.Mode(4, 4, 1))
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Geom.Banks = 5
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid geometry must be rejected")
	}
	bad = cfg
	bad.Mode = mcr.Mode{K: 3, M: 1, Region: 0.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid mode must be rejected")
	}
	bad = cfg
	bad.Geom.Rows = 4096
	if err := bad.Validate(); err == nil {
		t.Fatal("too-few rows must be rejected")
	}
}

func TestResolveTimingsBaseline(t *testing.T) {
	tim, err := ResolveTimings(DefaultConfig(mcr.Off()))
	if err != nil {
		t.Fatal(err)
	}
	if tim.MCR != tim.Normal {
		t.Fatal("with MCR off the classes must coincide")
	}
	if tim.RefreshMCRCycles != tim.Normal.TRFC {
		t.Fatal("with MCR off the refresh classes must coincide")
	}
}

func TestResolveTimingsAllMechanisms(t *testing.T) {
	tim, err := ResolveTimings(DefaultConfig(mcrtest.Mode(4, 4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if tim.MCR.TRCD != core.NSToMemCycles(6.90) {
		t.Errorf("MCR tRCD = %d, want Table 3's 6.90 ns", tim.MCR.TRCD)
	}
	if tim.MCR.TRAS != core.NSToMemCycles(20.0) {
		t.Errorf("MCR tRAS = %d, want Table 3's 20 ns", tim.MCR.TRAS)
	}
	if tim.RefreshMCRCycles != core.NSToMemCycles(180) {
		t.Errorf("MCR tRFC = %d, want Table 3's 180 ns", tim.RefreshMCRCycles)
	}
	if tim.Normal.TRCD != core.NSToMemCycles(13.75) {
		t.Error("normal rows must keep the baseline tRCD")
	}
}

// TestResolveTimingsMechanismToggles pins the ablation semantics.
func TestResolveTimingsMechanismToggles(t *testing.T) {
	mode := mcrtest.Mode(4, 4, 1)

	// Early-Access only: tRCD relaxed, tRAS *worse* than baseline (full
	// restore of 4 cells = Table 3's 1/4x value), tRFC the 1/4x class.
	cfg := DefaultConfig(mode)
	cfg.Mech = Mechanisms{EarlyAccess: true}
	tim, err := ResolveTimings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tim.MCR.TRCD != core.NSToMemCycles(6.90) {
		t.Error("EA must relax tRCD")
	}
	if tim.MCR.TRAS != core.NSToMemCycles(46.51) {
		t.Errorf("EA-only tRAS = %d cycles, want the 1/4x full-restore value", tim.MCR.TRAS)
	}
	if tim.RefreshMCRCycles != core.NSToMemCycles(326.67) {
		t.Errorf("EA-only tRFC = %d cycles, want the 1/4x class", tim.RefreshMCRCycles)
	}

	// EA+EP without FR: tRAS relaxed but refresh still full-restore.
	cfg.Mech = Mechanisms{EarlyAccess: true, EarlyPrecharge: true}
	tim, err = ResolveTimings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tim.MCR.TRAS != core.NSToMemCycles(20.0) {
		t.Error("EA+EP must relax tRAS to the 4/4x value")
	}
	if tim.RefreshMCRCycles != core.NSToMemCycles(326.67) {
		t.Error("without Fast-Refresh the MCR refresh stays full-restore")
	}

	// Refresh-Skipping off on a 2/4x mode: cells actually get 4 refreshes,
	// so EP may use the 16 ms budget (tRAS of 4/4x).
	cfg = DefaultConfig(mcrtest.Mode(4, 2, 1))
	cfg.Mech = Mechanisms{EarlyAccess: true, EarlyPrecharge: true, FastRefresh: true}
	tim, err = ResolveTimings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tim.MCR.TRAS != core.NSToMemCycles(20.0) {
		t.Error("with skipping disabled a 2/4x mode behaves like 4/4x for tRAS")
	}

	// Refresh-Skipping on: the 2/4x budget applies.
	cfg.Mech = AllMechanisms()
	tim, err = ResolveTimings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tim.MCR.TRAS != core.NSToMemCycles(22.78) {
		t.Errorf("2/4x tRAS = %d cycles, want Table 3's 22.78 ns", tim.MCR.TRAS)
	}
}

// TestResolveTimingsKtoKWiring: the ablation wiring leaves almost no
// Early-Precharge budget, so tRAS lands near the full-restore value.
func TestResolveTimingsKtoKWiring(t *testing.T) {
	cfg := DefaultConfig(mcrtest.Mode(4, 4, 1))
	cfg.Wiring = mcr.KtoK
	tim, err := ResolveTimings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := ResolveTimings(DefaultConfig(mcrtest.Mode(4, 4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if tim.MCR.TRAS <= uniform.MCR.TRAS {
		t.Fatalf("K-to-K wiring tRAS %d must exceed the uniform wiring's %d", tim.MCR.TRAS, uniform.MCR.TRAS)
	}
	if tim.MCR.TRCD != uniform.MCR.TRCD {
		t.Fatal("wiring must not affect Early-Access")
	}
}

func TestActivateReadPrechargeTiming(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	a := core.Address{Row: 100, Column: 5}
	tim := d.Timings().Normal

	if !d.CanActivate(a, 0) {
		t.Fatal("fresh bank must accept ACT at cycle 0")
	}
	d.Activate(a, 0)
	if d.OpenRow(a) != 100 {
		t.Fatal("row must be open after ACT")
	}
	// tRCD gates the read.
	if d.CanRead(a, int64(tim.TRCD)-1) {
		t.Fatal("READ before tRCD must be illegal")
	}
	if !d.CanRead(a, int64(tim.TRCD)) {
		t.Fatal("READ at tRCD must be legal")
	}
	done := d.Read(a, int64(tim.TRCD))
	if want := int64(tim.TRCD) + int64(tim.TCAS) + int64(tim.TBURST); done != want {
		t.Fatalf("read completion = %d, want %d", done, want)
	}
	// tRAS gates the precharge.
	if d.CanPrecharge(a, int64(tim.TRAS)-1) {
		t.Fatal("PRE before tRAS must be illegal")
	}
	if !d.CanPrecharge(a, int64(tim.TRAS)) {
		t.Fatal("PRE at tRAS must be legal")
	}
	d.Precharge(a, int64(tim.TRAS))
	if d.OpenRow(a) != -1 {
		t.Fatal("bank must close after PRE")
	}
	// tRP gates the next activate.
	if d.CanActivate(a, int64(tim.TRAS+tim.TRP)-1) {
		t.Fatal("ACT before tRP must be illegal")
	}
	if !d.CanActivate(a, int64(tim.TRAS+tim.TRP)) {
		t.Fatal("ACT at tRAS+tRP must be legal")
	}
}

func TestMCRRowUsesRelaxedTiming(t *testing.T) {
	d := newDevice(t, mcrtest.Mode(4, 4, 0.5), AllMechanisms())
	tim := d.Timings()
	normal := core.Address{Row: 10} // lower half of the subarray
	mcrRow := core.Address{Bank: 1, Row: 300}

	d.Activate(normal, 0)
	actAt := int64(tim.Normal.TRRD) // respect the rank's tRRD gate
	d.Activate(mcrRow, actAt)
	if d.CanRead(core.Address{Row: 10}, int64(tim.Normal.TRCD)-1) {
		t.Fatal("normal row must wait the full tRCD")
	}
	if !d.CanRead(core.Address{Bank: 1, Row: 300}, actAt+int64(tim.MCR.TRCD)) {
		t.Fatal("MCR row must be readable after the relaxed tRCD")
	}
	if !d.CanPrecharge(core.Address{Bank: 1, Row: 300}, actAt+int64(tim.MCR.TRAS)) {
		t.Fatal("MCR row must precharge after the relaxed tRAS")
	}
	st := d.Stats()
	if st.Activates != 2 || st.MCRActivates != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestIsRowHitTreatsClonesAsOneRow(t *testing.T) {
	d := newDevice(t, mcrtest.Mode(4, 4, 1), AllMechanisms())
	d.Activate(core.Address{Row: 256}, 0)
	for _, row := range []int{256, 257, 258, 259} {
		if !d.IsRowHit(core.Address{Row: row}) {
			t.Fatalf("clone row %d must be a row hit", row)
		}
	}
	if d.IsRowHit(core.Address{Row: 260}) {
		t.Fatal("row 260 belongs to the next MCR")
	}
}

func TestTRRDAndTFAW(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	tim := d.Timings().Normal
	// Four back-to-back ACTs to different banks, spaced by tRRD.
	var when int64
	for b := 0; b < 4; b++ {
		a := core.Address{Bank: b, Row: 1}
		got, ok := d.EarliestActivate(a, when)
		if !ok {
			t.Fatal("bank closed, ACT must be possible")
		}
		if got != when {
			t.Fatalf("ACT %d delayed to %d, expected %d", b, got, when)
		}
		d.Activate(a, when)
		when += int64(tim.TRRD)
	}
	// The fifth ACT must wait for the tFAW window.
	a := core.Address{Bank: 4, Row: 1}
	earliest, ok := d.EarliestActivate(a, when)
	if !ok {
		t.Fatal("fifth bank closed")
	}
	if want := int64(tim.TFAW); earliest < want {
		t.Fatalf("fifth ACT at %d violates tFAW (want >= %d)", earliest, want)
	}
}

func TestWriteTimingConstraints(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	tim := d.Timings().Normal
	a := core.Address{Row: 7}
	d.Activate(a, 0)
	wrAt := int64(tim.TRCD)
	if !d.CanWrite(a, wrAt) {
		t.Fatal("WRITE at tRCD must be legal")
	}
	end := d.Write(a, wrAt)
	if want := wrAt + int64(tim.TCWD+tim.TBURST); end != want {
		t.Fatalf("write completion = %d, want %d", end, want)
	}
	// tWR gates the precharge after the data burst.
	if d.CanPrecharge(a, end+int64(tim.TWR)-1) {
		t.Fatal("PRE before write recovery must be illegal")
	}
	if !d.CanPrecharge(a, end+int64(tim.TWR)) {
		t.Fatal("PRE after write recovery must be legal")
	}
	// tWTR gates a read in the same rank.
	b := core.Address{Bank: 1, Row: 9}
	d.Activate(b, int64(tim.TRRD))
	if d.CanRead(b, end+int64(tim.TWTR)-1) {
		t.Fatal("READ before tWTR must be illegal")
	}
	if !d.CanRead(b, end+int64(tim.TWTR)) {
		t.Fatal("READ after tWTR must be legal")
	}
}

func TestDataBusConflict(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	tim := d.Timings().Normal
	a := core.Address{Bank: 0, Row: 1}
	b := core.Address{Bank: 1, Row: 2}
	d.Activate(a, 0)
	d.Activate(b, int64(tim.TRRD))
	// Issue the first read late enough that bank b's own tRCD has elapsed,
	// so tCCD is the binding constraint on the second read.
	rdAt := int64(tim.TRRD) + int64(tim.TRCD) + 2
	d.Read(a, rdAt)
	if d.CanRead(b, rdAt+1) {
		t.Fatal("tCCD must gate back-to-back column commands")
	}
	if !d.CanRead(b, rdAt+int64(tim.TCCD)) {
		t.Fatal("READ at tCCD must be legal")
	}
}

func TestRankToRankSwitchPenalty(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	tim := d.Timings().Normal
	a := core.Address{Rank: 0, Row: 1}
	b := core.Address{Rank: 1, Row: 2}
	d.Activate(a, 0)
	d.Activate(b, int64(tim.TRRD))
	rdAt := int64(tim.TRCD) + 5
	d.Read(a, rdAt)
	// Same-rank read can follow at tCCD; other-rank read pays tRTRS on the
	// bus, which pushes its earliest issue later.
	sameRankEarliest, _ := d.EarliestRead(core.Address{Rank: 0, Row: 1}, rdAt)
	otherRankEarliest, _ := d.EarliestRead(b, rdAt)
	if otherRankEarliest <= sameRankEarliest {
		t.Fatalf("rank switch must cost extra: same=%d other=%d", sameRankEarliest, otherRankEarliest)
	}
}

func TestRefreshRequiresIdleRank(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	a := core.Address{Row: 3}
	d.Activate(a, 0)
	if d.CanRefresh(0, 0, 10) {
		t.Fatal("REF with an open bank must be illegal")
	}
	if !d.CanRefresh(0, 1, 10) {
		t.Fatal("the other rank is idle and must accept REF")
	}
}

func TestRefreshBlocksBanksForTRFC(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	tim := d.Timings().Normal
	op, done := d.Refresh(0, 0, 0, 0)
	if op.Skipped {
		t.Fatal("baseline refreshes are never skipped")
	}
	if done != int64(tim.TRFC) {
		t.Fatalf("refresh done at %d, want tRFC=%d", done, tim.TRFC)
	}
	a := core.Address{Row: 1}
	if d.CanActivate(a, done-1) {
		t.Fatal("ACT during tRFC must be illegal")
	}
	if !d.CanActivate(a, done) {
		t.Fatal("ACT after tRFC must be legal")
	}
	if d.Stats().Refreshes != 1 {
		t.Fatal("refresh must be counted")
	}
}

func TestRefreshSkippingCostsNothing(t *testing.T) {
	d := newDevice(t, mcrtest.Mode(4, 2, 1), AllMechanisms())
	// Find a counter the scheduler skips.
	skipCtr := -1
	for c := 0; c < 8192; c++ {
		if d.mech.RefreshPlan(c).Skipped {
			skipCtr = c
			break
		}
	}
	if skipCtr < 0 {
		t.Fatal("2/4x must skip some refreshes")
	}
	op, done := d.Refresh(0, 0, skipCtr, 42)
	if !op.Skipped {
		t.Fatal("skip plan must be honored")
	}
	if done != 42 {
		t.Fatalf("skipped REF must cost nothing, done=%d", done)
	}
	st := d.Stats()
	if st.SkippedRefreshes != 1 || st.Refreshes != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// With skipping disabled, the same REF must really run.
	cfg := DefaultConfig(mcrtest.Mode(4, 2, 1))
	cfg.Mech = Mechanisms{EarlyAccess: true, EarlyPrecharge: true, FastRefresh: true}
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	op2, done2 := d2.Refresh(0, 0, skipCtr, 42)
	if op2.Skipped || done2 == 42 {
		t.Fatal("with RS disabled the REF must execute")
	}
}

func TestFastRefreshUsesMCRClass(t *testing.T) {
	d := newDevice(t, mcrtest.Mode(4, 4, 1), AllMechanisms())
	_, done := d.Refresh(0, 0, 0, 0)
	if want := int64(core.NSToMemCycles(180)); done != want {
		t.Fatalf("4/4x REF took %d cycles, want %d", done, want)
	}
	if d.Stats().MCRRefreshes != 1 {
		t.Fatal("MCR refresh must be counted")
	}
}

func TestSetModeReconfigures(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	gen0 := d.ModeGeneration()
	if err := d.SetMode(mcrtest.Mode(4, 4, 1), 0); err != nil {
		t.Fatal(err)
	}
	if d.ModeGeneration() != gen0+1 {
		t.Fatal("MRS must bump the generation")
	}
	if !d.InMCR(0) {
		t.Fatal("after the MRS every row is in an MCR")
	}
	cfg := d.Config()
	cfg.Mech = AllMechanisms()
	// Open a bank: MRS must now be refused.
	d.Activate(core.Address{Row: 5}, 0)
	if err := d.SetMode(mcr.Off(), 1); err == nil {
		t.Fatal("MRS with open banks must be rejected")
	}
}

func TestRankBusy(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	if d.RankBusy(0, 0, 0) {
		t.Fatal("fresh rank must be idle")
	}
	d.Activate(core.Address{Row: 1}, 0)
	if !d.RankBusy(0, 0, 0) {
		t.Fatal("rank with an open bank is busy")
	}
	if d.RankBusy(0, 1, 0) {
		t.Fatal("the other rank is idle")
	}
	_, done := d.Refresh(0, 1, 0, 0)
	if !d.RankBusy(0, 1, done-1) {
		t.Fatal("rank under refresh is busy")
	}
	if d.RankBusy(0, 1, done) {
		t.Fatal("rank idle once refresh completes")
	}
}

func TestIllegalCommandsPanic(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := core.Address{Row: 1}
	mustPanic("read on closed bank", func() { d.Read(a, 0) })
	mustPanic("precharge on closed bank", func() { d.Precharge(a, 0) })
	d.Activate(a, 0)
	mustPanic("double activate", func() { d.Activate(a, 5) })
	mustPanic("early read", func() { d.Read(a, 1) })
	mustPanic("refresh with open bank", func() { d.Refresh(0, 0, 0, 5) })
}
