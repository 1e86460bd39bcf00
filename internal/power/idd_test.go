package power

import (
	"math"
	"testing"
)

func TestDefaultIDDValidates(t *testing.T) {
	if err := DefaultIDD().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIDDValidateRejects(t *testing.T) {
	muts := []func(*IDD){
		func(i *IDD) { i.VDD = 0 },
		func(i *IDD) { i.Chips = 0 },
		func(i *IDD) { i.IDD0 = i.IDD3N },
		func(i *IDD) { i.IDD2N = i.IDD3N + 1 },
		func(i *IDD) { i.IDD2P = -1 },
		func(i *IDD) { i.IDD4R = i.IDD3N },
		func(i *IDD) { i.IDD5B = i.IDD2N },
		func(i *IDD) { i.TRCNS = 0 },
		// `<= 0` let a NaN VDD through.
		func(i *IDD) { i.VDD = math.NaN() },
	}
	for n, mut := range muts {
		i := DefaultIDD()
		mut(&i)
		if err := i.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", n)
		}
	}
}

func TestDeriveFormulas(t *testing.T) {
	i := DefaultIDD()
	p, err := i.Derive()
	if err != nil {
		t.Fatal(err)
	}
	// E(ACT+PRE) = (65-42)mA * 1.5V * 48.75ns * 8 / 1000 = 13.45 nJ.
	if want := (65.0 - 42.0) * 1.5 * 48.75 * 8 / 1000; math.Abs(p.EActNJ-want) > 1e-9 {
		t.Errorf("EActNJ = %g, want %g", p.EActNJ, want)
	}
	// E(REF) = (200-32)mA * 1.5V * 260ns * 8 / 1000 = 524.16 nJ.
	if want := (200.0 - 32.0) * 1.5 * 260 * 8 / 1000; math.Abs(p.ERefreshNJ-want) > 1e-9 {
		t.Errorf("ERefreshNJ = %g, want %g", p.ERefreshNJ, want)
	}
	// Background powers.
	if want := 42.0 * 1.5 * 8; p.PActiveMW != want {
		t.Errorf("PActiveMW = %g, want %g", p.PActiveMW, want)
	}
	if p.PStandbyMW >= p.PActiveMW || p.PPowerDownMW >= p.PStandbyMW {
		t.Error("background power ordering broken")
	}
	// Derived params pass the model's own validation.
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedCloseToDefaults: the hand-picked Default() constants should
// be within a small factor of the datasheet derivation (they were chosen
// to be representative).
func TestDerivedCloseToDefaults(t *testing.T) {
	p, err := DefaultIDD().Derive()
	if err != nil {
		t.Fatal(err)
	}
	d := Default()
	within := func(name string, a, b, factor float64) {
		t.Helper()
		ratio := a / b
		if ratio > factor || ratio < 1/factor {
			t.Errorf("%s: derived %g vs default %g (ratio %.2f)", name, a, b, ratio)
		}
	}
	within("EActNJ", p.EActNJ, d.EActNJ, 2.0)
	// The defaults fold I/O and termination energy into the burst cost;
	// the pure IDD4-IDD3N core energy is roughly half of it.
	within("EReadNJ", p.EReadNJ, d.EReadNJ, 2.5)
	within("ERefreshNJ", p.ERefreshNJ, d.ERefreshNJ, 2.0)
	within("PActiveMW", p.PActiveMW, d.PActiveMW, 2.0)
}

func TestDeriveRejectsBadInput(t *testing.T) {
	i := DefaultIDD()
	i.Chips = -1
	if _, err := i.Derive(); err == nil {
		t.Fatal("invalid IDD must not derive")
	}
}
