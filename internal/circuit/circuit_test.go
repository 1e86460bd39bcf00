package circuit

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// tolerance for circuit-model predictions against the paper's SPICE values.
const table3Tolerance = 0.12

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero VDD", func(p *Params) { p.VDD = 0 }},
		{"negative ratio", func(p *Params) { p.CBitOverCCell = -1 }},
		{"zero TauAccess", func(p *Params) { p.TauAccess = 0 }},
		{"zero TauSense", func(p *Params) { p.TauSense = 0 }},
		{"negative slew", func(p *Params) { p.SlewLimit = -0.1 }},
		{"VAccess too low", func(p *Params) { p.VAccessFrac = 0.4 }},
		{"VAccess too high", func(p *Params) { p.VAccessFrac = 1.0 }},
		{"margin too high", func(p *Params) { p.Margin = 1.5 }},
		{"restore margin zero", func(p *Params) { p.FullRestoreMargin = 0 }},
		{"leak out of range", func(p *Params) { p.LeakFracPer64Ms = 1 }},
		{"zero retention", func(p *Params) { p.RetentionMs = 0 }},
		{"zero step", func(p *Params) { p.Dt = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Default()
			tc.mut(&p)
			if err := p.Validate(); err == nil {
				t.Fatalf("expected validation error")
			}
		})
	}
}

func TestChargeSharingDeltaVMatchesEquation1(t *testing.T) {
	p := Default()
	for _, k := range []int{1, 2, 4, 8} {
		want := p.VDD / 2 / (1 + p.CBitOverCCell/float64(k))
		if got := p.ChargeSharingDeltaV(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("dV(%d) = %g, want %g", k, got, want)
		}
	}
}

func TestChargeSharingDeltaVIncreasesWithK(t *testing.T) {
	p := Default()
	if !(p.ChargeSharingDeltaV(1) < p.ChargeSharingDeltaV(2) && p.ChargeSharingDeltaV(2) < p.ChargeSharingDeltaV(4)) {
		t.Fatalf("dV must grow with K: %g %g %g",
			p.ChargeSharingDeltaV(1), p.ChargeSharingDeltaV(2), p.ChargeSharingDeltaV(4))
	}
}

// TestTable3TRCD checks the Early-Access predictions against Table 3.
func TestTable3TRCD(t *testing.T) {
	p := Default()
	want := map[int]float64{1: 13.75, 2: 9.94, 4: 6.90}
	for k, ns := range want {
		got, err := p.DeriveTRCD(k)
		if err != nil {
			t.Fatalf("DeriveTRCD(%d): %v", k, err)
		}
		if dev := math.Abs(got-ns) / ns; dev > table3Tolerance {
			t.Errorf("tRCD(%dx) = %.2f ns, paper %.2f ns (%.1f%% off)", k, got, ns, dev*100)
		}
	}
}

// TestTable3TRAS checks the Early-Precharge predictions against Table 3.
func TestTable3TRAS(t *testing.T) {
	p := Default()
	cases := []struct {
		k, m int
		ns   float64
	}{
		{1, 1, 35}, {2, 1, 37.52}, {2, 2, 21.46},
		{4, 1, 46.51}, {4, 2, 22.78}, {4, 4, 20.00},
	}
	for _, c := range cases {
		got, err := p.DeriveTRAS(c.k, c.m)
		if err != nil {
			t.Fatalf("DeriveTRAS(%d,%d): %v", c.k, c.m, err)
		}
		if dev := math.Abs(got-c.ns) / c.ns; dev > table3Tolerance {
			t.Errorf("tRAS(%d/%dx) = %.2f ns, paper %.2f ns (%.1f%% off)", c.m, c.k, got, c.ns, dev*100)
		}
	}
}

// TestTRCDMonotoneInK pins the Early-Access shape: more clones, faster
// sensing.
func TestTRCDMonotoneInK(t *testing.T) {
	p := Default()
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 4} {
		got, err := p.DeriveTRCD(k)
		if err != nil {
			t.Fatal(err)
		}
		if got >= prev {
			t.Fatalf("tRCD must strictly decrease with K, got %.2f after %.2f", got, prev)
		}
		prev = got
	}
}

// TestFullRestoreSlowerForLargerK pins the key second-order effect: without
// Early-Precharge (M=1, full restore) a bigger MCR is *slower* than a
// normal row because one sense amplifier recharges K cells.
func TestFullRestoreSlowerForLargerK(t *testing.T) {
	p := Default()
	prev := 0.0
	for _, k := range []int{1, 2, 4} {
		got, err := p.DeriveTRAS(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got <= prev {
			t.Fatalf("full-restore tRAS must grow with K, got %.2f after %.2f", got, prev)
		}
		prev = got
	}
}

// TestEarlyPrechargeShortensTRAS pins that more refreshes per window
// (larger M) shorten tRAS.
func TestEarlyPrechargeShortensTRAS(t *testing.T) {
	p := Default()
	for _, k := range []int{2, 4} {
		prev := math.Inf(1)
		for m := 1; m <= k; m *= 2 {
			got, err := p.DeriveTRAS(k, m)
			if err != nil {
				t.Fatal(err)
			}
			if got >= prev {
				t.Fatalf("tRAS(%d/%dx)=%.2f not below tRAS at smaller M %.2f", m, k, got, prev)
			}
			prev = got
		}
	}
}

func TestRestoreTargetShrinksWithInterval(t *testing.T) {
	p := Default()
	if p.RestoreTarget(64) <= p.RestoreTarget(32) {
		t.Fatal("64 ms interval must require a higher restore target than 32 ms")
	}
	if p.RestoreTarget(32) <= p.RestoreTarget(16) {
		t.Fatal("32 ms interval must require a higher restore target than 16 ms")
	}
	// Clamped above the retention window.
	if p.RestoreTarget(128) != p.RestoreTarget(64) {
		t.Fatal("intervals beyond the retention window must clamp")
	}
}

func TestRestoreTargetNeverExceedsVDD(t *testing.T) {
	p := Default()
	err := quick.Check(func(interval float64) bool {
		iv := math.Mod(math.Abs(interval), 64) // any interval in [0, 64)
		tgt := p.RestoreTarget(iv)
		return tgt > 0 && tgt < p.VDD
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxRefreshIntervalMs(t *testing.T) {
	p := Default()
	cases := []struct {
		k, m int
		want float64
	}{
		{1, 1, 64}, {2, 1, 64}, {2, 2, 32}, {4, 1, 64}, {4, 2, 32}, {4, 4, 16},
		{4, 0, 64},  // clamps m below 1
		{2, 99, 32}, // clamps m above k
	}
	for _, c := range cases {
		if got := p.MaxRefreshIntervalMs(c.k, c.m); got != c.want {
			t.Errorf("MaxRefreshIntervalMs(%d,%d) = %g, want %g", c.k, c.m, got, c.want)
		}
	}
}

func TestSimulateTransientShape(t *testing.T) {
	p := Default()
	tr := p.Simulate(4, 50, 1)
	if tr.K != 4 || len(tr.T) == 0 || len(tr.T) != len(tr.VBit) || len(tr.T) != len(tr.VCell) {
		t.Fatalf("malformed transient: %d/%d/%d samples", len(tr.T), len(tr.VBit), len(tr.VCell))
	}
	// Bitline starts at VDD/2 and ends near VDD; cell dips then recovers.
	if math.Abs(tr.VBit[0]-p.VDD/2) > 1e-9 {
		t.Fatalf("bitline must start at VDD/2, got %g", tr.VBit[0])
	}
	last := len(tr.T) - 1
	if tr.VBit[last] < 0.95*p.VDD {
		t.Fatalf("bitline should approach VDD by 50 ns, got %g", tr.VBit[last])
	}
	minCell := p.VDD
	for _, v := range tr.VCell {
		if v < minCell {
			minCell = v
		}
	}
	if minCell >= p.VDD {
		t.Fatal("cell voltage must dip during charge sharing")
	}
	if tr.VCell[last] < 0.9*p.VDD {
		t.Fatalf("cell should be nearly restored by 50 ns, got %g", tr.VCell[last])
	}
}

func TestTransientVoltagesBounded(t *testing.T) {
	p := Default()
	for _, k := range []int{1, 2, 4} {
		tr := p.Simulate(k, 60, 0.5)
		for i := range tr.T {
			if tr.VBit[i] < 0 || tr.VBit[i] > p.VDD+1e-9 {
				t.Fatalf("K=%d: bitline voltage %g out of rails at %g ns", k, tr.VBit[i], tr.T[i])
			}
			if tr.VCell[i] < 0 || tr.VCell[i] > p.VDD+1e-9 {
				t.Fatalf("K=%d: cell voltage %g out of rails at %g ns", k, tr.VCell[i], tr.T[i])
			}
		}
	}
}

// TestFig10BitlineOrdering pins Fig 10(a): at any instant during sensing the
// higher-K bitline is at least as far along.
func TestFig10BitlineOrdering(t *testing.T) {
	p := Default()
	t1 := p.Simulate(1, 14, 0.5)
	t2 := p.Simulate(2, 14, 0.5)
	t4 := p.Simulate(4, 14, 0.5)
	for i := range t1.T {
		if t1.T[i] < p.TWordline+p.TSenseEnable {
			continue
		}
		if t4.VBit[i]+1e-9 < t2.VBit[i] || t2.VBit[i]+1e-9 < t1.VBit[i] {
			t.Fatalf("bitline ordering violated at %g ns: 1x=%g 2x=%g 4x=%g",
				t1.T[i], t1.VBit[i], t2.VBit[i], t4.VBit[i])
		}
	}
}

func TestSenseTimeErrorsOnUnphysicalParams(t *testing.T) {
	p := Default()
	p.TauSense = 1e9 // amplifier too weak to ever latch
	p.SlewLimit = 1e-9
	if _, err := p.SenseTime(1); err == nil {
		t.Fatal("expected an error when the bitline cannot reach the accessible voltage")
	}
}

// TestSenseTimeAt: less stored charge senses later, full charge is
// SenseTime, and a level outside (0.5, 1] — NaN and ±Inf included — is
// refused before any integration.
func TestSenseTimeAt(t *testing.T) {
	p := Default()
	full, err := p.SenseTime(1)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, level := range []float64{1, 0.9, 0.8} {
		got, err := p.SenseTimeAt(1, level)
		if err != nil {
			t.Fatal(err)
		}
		if level == 1 && got != full {
			t.Fatalf("full charge senses in %g ns, SenseTime says %g", got, full)
		}
		if got < prev {
			t.Fatalf("level %g senses in %g ns, faster than a fuller cell's %g", level, got, prev)
		}
		prev = got
	}
	for _, level := range []float64{0.5, 1.01, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := p.SenseTimeAt(1, level); err == nil || !strings.Contains(err.Error(), "out of (0.5, 1]") {
			t.Errorf("level %g: got %v, want the range error", level, err)
		}
	}
}

func TestTRFCCoefficientsReproduceTable3(t *testing.T) {
	// tRFC = A + B*tRC must land within 5% of every Table 3 tRFC given the
	// paper's own tRAS values.
	cases := []struct {
		tras, want1Gb, want4Gb float64
	}{
		{35, 110, 260}, {37.52, 118.46, 280}, {21.46, 81.79, 193.33},
		{46.51, 138.21, 326.67}, {22.78, 84.62, 200}, {20.00, 76.15, 180},
	}
	const tRP = 13.75
	for _, c := range cases {
		got1 := TRFC1Gb.DeriveTRFC(c.tras + tRP)
		got4 := TRFC4Gb.DeriveTRFC(c.tras + tRP)
		if dev := math.Abs(got1-c.want1Gb) / c.want1Gb; dev > 0.05 {
			t.Errorf("1Gb tRFC(tRAS=%.2f) = %.2f, want %.2f (%.1f%%)", c.tras, got1, c.want1Gb, dev*100)
		}
		if dev := math.Abs(got4-c.want4Gb) / c.want4Gb; dev > 0.05 {
			t.Errorf("4Gb tRFC(tRAS=%.2f) = %.2f, want %.2f (%.1f%%)", c.tras, got4, c.want4Gb, dev*100)
		}
	}
}

func TestPrechargeTimeIsDDR3TRP(t *testing.T) {
	if got := Default().PrechargeTime(); got != 13.75 {
		t.Fatalf("tRP = %g, want 13.75", got)
	}
}
