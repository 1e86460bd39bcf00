package timing

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
)

func TestBaseline1xValues(t *testing.T) {
	b := Baseline1x()
	if b.TRCD != 13.75 || b.TRAS != 35 || b.TRP != 13.75 || b.TRFC != 260 {
		t.Fatalf("4 Gb baseline wrong: %+v", b)
	}
}

// mcrParams is the cycle-denominated parameter set of the rows inside an
// M/Kx MCR with every mechanism on: tRCD, tRAS and the 4 Gb tRFC from
// Table 3, tRP and the column constraints at their DDR3 values.
func mcrParams(k, m int) (Params, error) {
	t, err := Lookup(k, m)
	if err != nil {
		return Params{}, err
	}
	ns := Baseline1x()
	ns.TRCD, ns.TRAS, ns.TRFC = t.TRCDNS, t.TRASNS, t.TRFC4Gb
	return NewParams(ns), nil
}

func TestNewParamsCycleConversion(t *testing.T) {
	p := NewParams(Baseline1x())
	// 13.75 ns at 1.25 ns per cycle = 11 cycles; 35 ns -> 28; 260 -> 208.
	if p.TRCD != 11 {
		t.Errorf("TRCD = %d cycles, want 11", p.TRCD)
	}
	if p.TRAS != 28 {
		t.Errorf("TRAS = %d cycles, want 28", p.TRAS)
	}
	if p.TRP != 11 {
		t.Errorf("TRP = %d cycles, want 11", p.TRP)
	}
	if p.TRFC != 208 {
		t.Errorf("TRFC = %d cycles, want 208", p.TRFC)
	}
	if p.TRC != p.TRAS+p.TRP {
		t.Errorf("TRC = %d, want TRAS+TRP = %d", p.TRC, p.TRAS+p.TRP)
	}
	// tREFI = 7812.5 ns -> 6250 cycles.
	if p.TREFI != 6250 {
		t.Errorf("TREFI = %d cycles, want 6250", p.TREFI)
	}
}

func TestTable3Complete(t *testing.T) {
	rows := Table3()
	if len(rows) != 6 {
		t.Fatalf("Table 3 must have 6 modes, got %d", len(rows))
	}
	want := map[[2]int][3]float64{ // {k,m} -> {tRCD, tRAS, tRFC4Gb}
		{1, 1}: {13.75, 35, 260},
		{2, 1}: {9.94, 37.52, 280},
		{2, 2}: {9.94, 21.46, 193.33},
		{4, 1}: {6.90, 46.51, 326.67},
		{4, 2}: {6.90, 22.78, 200},
		{4, 4}: {6.90, 20.00, 180},
	}
	for _, r := range rows {
		w, ok := want[[2]int{r.K, r.M}]
		if !ok {
			t.Fatalf("unexpected mode %d/%dx", r.M, r.K)
		}
		if r.TRCDNS != w[0] || r.TRASNS != w[1] || r.TRFC4Gb != w[2] {
			t.Errorf("mode %d/%dx = (%g, %g, %g), want (%g, %g, %g)",
				r.M, r.K, r.TRCDNS, r.TRASNS, r.TRFC4Gb, w[0], w[1], w[2])
		}
	}
}

func TestLookupUnknownMode(t *testing.T) {
	if _, err := Lookup(8, 1); err == nil {
		t.Fatal("expected error for unsupported K=8")
	}
	if _, err := Lookup(4, 3); err == nil {
		t.Fatal("expected error for non-power-of-two M")
	}
}

func TestMCRParamsAppliesTable3(t *testing.T) {
	p, err := mcrParams(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.TRCD != core.NSToMemCycles(6.90) {
		t.Errorf("TRCD = %d, want %d", p.TRCD, core.NSToMemCycles(6.90))
	}
	if p.TRAS != core.NSToMemCycles(20.0) {
		t.Errorf("TRAS = %d, want %d", p.TRAS, core.NSToMemCycles(20.0))
	}
	if p.TRFC != core.NSToMemCycles(180) {
		t.Errorf("TRFC = %d, want %d", p.TRFC, core.NSToMemCycles(180))
	}
	// tRP unchanged by MCR.
	if p.TRP != core.NSToMemCycles(13.75) {
		t.Errorf("TRP = %d, want unchanged baseline", p.TRP)
	}
}

func TestDeriveMatchesCircuitModel(t *testing.T) {
	p := circuit.Default()
	d, err := Derive(p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantRCD, err := p.DeriveTRCD(2)
	if err != nil {
		t.Fatal(err)
	}
	if d.TRCDNS != wantRCD {
		t.Errorf("Derive tRCD = %g, circuit says %g", d.TRCDNS, wantRCD)
	}
	wantRAS, err := p.DeriveTRAS(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.TRASNS != wantRAS {
		t.Errorf("Derive tRAS = %g, circuit says %g", d.TRASNS, wantRAS)
	}
	if d.TRFC4Gb != circuit.TRFC4Gb.DeriveTRFC(wantRAS+p.PrechargeTime()) {
		t.Error("Derive tRFC must come from the affine refresh-cost model")
	}
}

func TestMCRTimingsRelaxedVsBaseline(t *testing.T) {
	base := NewParams(Baseline1x())
	for _, km := range [][2]int{{2, 2}, {4, 2}, {4, 4}} {
		p, err := mcrParams(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		if p.TRCD >= base.TRCD {
			t.Errorf("mode %d/%dx tRCD %d not below baseline %d", km[1], km[0], p.TRCD, base.TRCD)
		}
		if p.TRAS >= base.TRAS {
			t.Errorf("mode %d/%dx tRAS %d not below baseline %d", km[1], km[0], p.TRAS, base.TRAS)
		}
		if p.TRFC >= base.TRFC {
			t.Errorf("mode %d/%dx tRFC %d not below baseline %d", km[1], km[0], p.TRFC, base.TRFC)
		}
	}
	// The skip-heavy modes trade tRAS/tRFC the other way (Table 3).
	for _, km := range [][2]int{{2, 1}, {4, 1}} {
		p, err := mcrParams(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		if p.TRAS <= base.TRAS {
			t.Errorf("mode 1/%dx tRAS %d should exceed baseline %d (full restore of K cells)", km[0], p.TRAS, base.TRAS)
		}
	}
}

func TestColumnConstraintsFixedAcrossModes(t *testing.T) {
	base := NewParams(Baseline1x())
	for _, km := range [][2]int{{2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 4}} {
		p, err := mcrParams(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		if p.TCAS != base.TCAS || p.TCWD != base.TCWD || p.TBURST != base.TBURST ||
			p.TCCD != base.TCCD || p.TRRD != base.TRRD || p.TFAW != base.TFAW ||
			p.TWTR != base.TWTR || p.TRTP != base.TRTP || p.TWR != base.TWR ||
			p.TREFI != base.TREFI {
			t.Fatalf("mode %d/%dx changed a column/bus constraint", km[1], km[0])
		}
	}
}
