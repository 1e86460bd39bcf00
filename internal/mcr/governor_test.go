package mcr

import (
	"math"
	"testing"
)

func newGov(t *testing.T, startK int) *Governor {
	t.Helper()
	g, err := NewGovernor(DefaultGovernorConfig(), startK)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGovernorConfigValidate(t *testing.T) {
	if err := DefaultGovernorConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []GovernorConfig{
		{RelaxAbove: 0, TightenBelow: 0},
		{RelaxAbove: 1.2, TightenBelow: 0.4},
		{RelaxAbove: 0.5, TightenBelow: 0.6},
		{RelaxAbove: 0.5, TightenBelow: -0.1},
		// NaN passed both threshold tests.
		{RelaxAbove: math.NaN(), TightenBelow: 0.4},
		{RelaxAbove: 0.9, TightenBelow: math.NaN()},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should be rejected", c)
		}
	}
}

func TestNewGovernorRungs(t *testing.T) {
	if g := newGov(t, 4); g.Mode().K != 4 || g.VisibleFraction() != 0.25 {
		t.Fatal("4x rung wrong")
	}
	if g := newGov(t, 1); g.Mode().K != 1 || g.VisibleFraction() != 1 {
		t.Fatal("off rung wrong")
	}
	if _, err := NewGovernor(DefaultGovernorConfig(), 8); err == nil {
		t.Fatal("unknown rung must be rejected")
	}
}

func TestGovernorRelaxLadder(t *testing.T) {
	g := newGov(t, 4)
	// 95% full visible memory -> relax to 2x.
	if d := g.Evaluate(0.95); d != Relax {
		t.Fatalf("decision = %v, want relax", d)
	}
	m, err := g.Apply(Relax, false) // relaxation never needs migration
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 2 {
		t.Fatalf("after relax K = %d, want 2", m.K)
	}
	// Still crushed -> relax to off.
	if d := g.Evaluate(0.95); d != Relax {
		t.Fatal("second relax expected")
	}
	if m, _ = g.Apply(Relax, false); m.K != 1 {
		t.Fatal("ladder must end at the off mode")
	}
	// At the bottom, stay even under pressure.
	if d := g.Evaluate(0.99); d != Stay {
		t.Fatal("cannot relax past full capacity")
	}
	if _, err := g.Apply(Relax, false); err == nil {
		t.Fatal("relaxing past the ladder must error")
	}
}

func TestGovernorTightenNeedsMigration(t *testing.T) {
	g := newGov(t, 1)
	if d := g.Evaluate(0.1); d != Tighten {
		t.Fatalf("decision = %v, want tighten (10%% utilization)", d)
	}
	if _, err := g.Apply(Tighten, false); err == nil {
		t.Fatal("tightening without migration must be refused")
	}
	m, err := g.Apply(Tighten, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 2 {
		t.Fatalf("after tighten K = %d, want 2", m.K)
	}
}

func TestGovernorHysteresis(t *testing.T) {
	g := newGov(t, 2)
	// Middle utilization: stay put in both directions.
	for _, u := range []float64{0.3, 0.5, 0.8} {
		if d := g.Evaluate(u); d != Stay {
			t.Fatalf("utilization %g: decision %v, want stay", u, d)
		}
	}
	// The tighten rule accounts for the capacity halving: 0.19*2 < 0.40.
	if d := g.Evaluate(0.19); d != Tighten {
		t.Fatal("0.19 utilization should allow tightening")
	}
	if d := g.Evaluate(0.21); d != Stay {
		t.Fatal("0.21 would exceed the post-tighten threshold")
	}
}

func TestGovernorAtFastestCannotTighten(t *testing.T) {
	g := newGov(t, 4)
	if d := g.Evaluate(0.05); d != Stay {
		t.Fatal("fastest rung cannot tighten further")
	}
	if _, err := g.Apply(Tighten, true); err == nil {
		t.Fatal("tightening past the ladder must error")
	}
}

func TestDecisionString(t *testing.T) {
	if Stay.String() != "stay" || Relax.String() != "relax" || Tighten.String() != "tighten" {
		t.Fatal("decision names wrong")
	}
}

// TestGovernorModeChangeIsMRSCompatible: every rung is a valid MRS target
// and the relax direction matches the Table 2 mapper's safety rule.
func TestGovernorModeChangeIsMRSCompatible(t *testing.T) {
	g := newGov(t, 4)
	reg := NewModeRegister()
	mapper, err := NewCapacityMapper(4, 15)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if err := reg.Set(g.Mode()); err != nil {
			t.Fatalf("rung %v not MRS-encodable: %v", g.Mode(), err)
		}
		if g.Evaluate(0.99) != Relax {
			break
		}
		m, err := g.Apply(Relax, false)
		if err != nil {
			t.Fatal(err)
		}
		mapper, err = mapper.RelaxTo(m.K)
		if err != nil {
			t.Fatalf("mapper refused a governor relax: %v", err)
		}
	}
}
