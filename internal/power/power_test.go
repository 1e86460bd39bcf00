package power

import (
	"math"
	"testing"
	"testing/quick"
)

func baseUsage() Usage {
	return Usage{
		NormalActs:       10_000,
		Reads:            40_000,
		Writes:           15_000,
		NormalRefs:       500,
		MCRRows:          1,
		MCRTRASRatio:     1,
		MCRTRFCRatio:     1,
		ElapsedMemCycles: 2_000_000,
		ActiveCycles:     1_500_000,
		StandbyCycles:    2_000_000,
		PowerDownCycles:  500_000,
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	muts := []func(*Params){
		func(p *Params) { p.EActNJ = 0 },
		func(p *Params) { p.EReadNJ = -1 },
		func(p *Params) { p.ERefreshNJ = 0 },
		func(p *Params) { p.RestoreFrac = 1.2 },
		func(p *Params) { p.WordlineOverhead = 0.9 },
		func(p *Params) { p.PStandbyMW = p.PActiveMW + 1 },
		func(p *Params) { p.PPowerDownMW = -1 },
	}
	for i, mut := range muts {
		p := Default()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	// A NaN fails no ordered comparison, so every check must be written to
	// fail on one; an infinity passes the lower bounds.
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(*Params){
		"EActNJ NaN":           func(p *Params) { p.EActNJ = nan },
		"EActNJ +Inf":          func(p *Params) { p.EActNJ = inf },
		"RestoreFrac NaN":      func(p *Params) { p.RestoreFrac = nan },
		"WordlineOverhead NaN": func(p *Params) { p.WordlineOverhead = nan },
		"EReadNJ NaN":          func(p *Params) { p.EReadNJ = nan },
		"EReadNJ +Inf":         func(p *Params) { p.EReadNJ = inf },
		"EWriteNJ NaN":         func(p *Params) { p.EWriteNJ = nan },
		"EWriteNJ +Inf":        func(p *Params) { p.EWriteNJ = inf },
		"ERefreshNJ NaN":       func(p *Params) { p.ERefreshNJ = nan },
		"ERefreshNJ +Inf":      func(p *Params) { p.ERefreshNJ = inf },
		"PActiveMW NaN":        func(p *Params) { p.PActiveMW = nan },
		"PActiveMW +Inf":       func(p *Params) { p.PActiveMW = inf },
		"PStandbyMW NaN":       func(p *Params) { p.PStandbyMW = nan },
		"PPowerDownMW NaN":     func(p *Params) { p.PPowerDownMW = nan },
	} {
		p := Default()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestBreakdownComponents(t *testing.T) {
	p := Default()
	b := p.Energy(baseUsage())
	if b.ActivateNJ != 10_000*p.EActNJ {
		t.Errorf("activate energy %g, want %g", b.ActivateNJ, 10_000*p.EActNJ)
	}
	if b.ReadWriteNJ != 40_000*p.EReadNJ+15_000*p.EWriteNJ {
		t.Errorf("rd/wr energy %g", b.ReadWriteNJ)
	}
	if b.RefreshNJ != 500*p.ERefreshNJ {
		t.Errorf("refresh energy %g", b.RefreshNJ)
	}
	if b.BackgroundNJ <= 0 {
		t.Error("background energy must be positive")
	}
	if b.TotalNJ() != b.ActivateNJ+b.ReadWriteNJ+b.RefreshNJ+b.BackgroundNJ {
		t.Error("TotalNJ must sum the components")
	}
}

// TestMCRActivateCosts pins Sec. 6.4: the multi-wordline overhead is small
// and the truncated restore wins, so an Early-Precharged 4x MCR ACT costs
// *less* than a normal ACT.
func TestMCRActivateCosts(t *testing.T) {
	p := Default()
	u := baseUsage()
	u.NormalActs = 0
	u.MCRActs = 10_000
	u.MCRRows = 4
	u.MCRTRASRatio = 20.0 / 35.0 // Table 3 4/4x vs baseline
	mcrB := p.Energy(u)
	if normal := 10_000 * p.EActNJ; mcrB.ActivateNJ >= normal {
		t.Fatalf("MCR activates with Early-Precharge should cost less: %g vs %g", mcrB.ActivateNJ, normal)
	}
	// Without the tRAS reduction (ratio > 1, the 1/4x full-restore case)
	// the extra wordlines make MCR activates dearer.
	u.MCRTRASRatio = 46.51 / 35.0
	dearB := p.Energy(u)
	if normal := 10_000 * p.EActNJ; dearB.ActivateNJ <= normal {
		t.Fatalf("full-restore MCR activates should cost more: %g vs %g", dearB.ActivateNJ, normal)
	}
}

// TestFastRefreshCheaper: MCR refreshes scale with the tRFC ratio.
func TestFastRefreshCheaper(t *testing.T) {
	p := Default()
	u := baseUsage()
	u.NormalRefs = 0
	u.MCRRefs = 500
	u.MCRTRFCRatio = 180.0 / 260.0
	b := p.Energy(u)
	if want := 500 * p.ERefreshNJ * 180 / 260; b.RefreshNJ != want {
		t.Fatalf("fast refresh energy %g, want %g", b.RefreshNJ, want)
	}
}

func TestZeroRatiosDefaultToOne(t *testing.T) {
	p := Default()
	u := baseUsage()
	u.MCRActs = 100
	u.MCRRows = 0
	u.MCRTRASRatio = 0
	u.MCRTRFCRatio = 0
	u.MCRRefs = 10
	b := p.Energy(u)
	if b.ActivateNJ != (10_000+100)*p.EActNJ {
		t.Fatalf("zero ratios must behave as 1: %g", b.ActivateNJ)
	}
	if b.RefreshNJ != (500+10)*p.ERefreshNJ {
		t.Fatalf("zero tRFC ratio must behave as 1: %g", b.RefreshNJ)
	}
}

// TestPowerDownSavesEnergy: shifting standby cycles into power-down always
// lowers the background energy.
func TestPowerDownSavesEnergy(t *testing.T) {
	p := Default()
	err := quick.Check(func(raw uint32) bool {
		moved := int64(raw % 1_000_000)
		a := baseUsage()
		b := baseUsage()
		b.StandbyCycles -= moved
		b.PowerDownCycles += moved
		return p.Energy(b).BackgroundNJ <= p.Energy(a).BackgroundNJ
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEDPScalesWithDelay(t *testing.T) {
	e := 1e6 // nJ
	if EDP(e, 2_000_000) != 2*EDP(e, 1_000_000) {
		t.Fatal("EDP must be linear in delay")
	}
	// 1e6 nJ over 800k cycles (1 ms) = 1e6 nJ * 1e-3 s.
	got, want := EDP(1e6, 800_000), 1e6*1e-3
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("EDP = %g, want %g", got, want)
	}
}

// TestRefreshPowerMagnitude sanity-checks the constants: a continuously
// refreshed idle rank should burn a few percent of its standby power on
// refresh, not orders of magnitude more or less.
func TestRefreshPowerMagnitude(t *testing.T) {
	p := Default()
	// One 64 ms window: 8192 REFs, rank otherwise in standby.
	u := Usage{
		NormalRefs:       8192,
		MCRRows:          1,
		MCRTRASRatio:     1,
		MCRTRFCRatio:     1,
		ElapsedMemCycles: 51_200_000, // 64 ms at 1.25 ns
		StandbyCycles:    51_200_000,
	}
	b := p.Energy(u)
	ratio := b.RefreshNJ / b.BackgroundNJ
	if ratio < 0.05 || ratio > 1 {
		t.Fatalf("refresh/background ratio = %.3f, constants look miscalibrated", ratio)
	}
}
