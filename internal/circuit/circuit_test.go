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
		// `<= 0` tests let these through.
		{"NaN VDD", func(p *Params) { p.VDD = math.NaN() }},
		{"infinite step", func(p *Params) { p.Dt = math.Inf(1) }},
		{"negative wordline delay", func(p *Params) { p.TWordline = -1 }},
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

// chargeSharingDeltaV is the paper's analytic eq. (1) charge-sharing
// voltage for a Kx MCR: ΔV = (VDD/2) / (1 + Cbit/(K*Ccell)).
func chargeSharingDeltaV(p Params, k int) float64 {
	return p.VDD / 2 / (1 + p.CBitOverCCell/float64(k))
}

// TestChargeSharingDeltaVMatchesEquation1: with the sense amplifier held
// off, the transient model's bitline settles at eq. (1)'s swing — the
// Euler step conserves the K cells' and the bitline's charge exactly.
func TestChargeSharingDeltaVMatchesEquation1(t *testing.T) {
	p := Default()
	p.TSenseEnable = math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		vb, vc := p.VDD/2, p.VDD
		for t := 0.0; t <= 300; t += p.Dt {
			vb, vc = p.step(t, vb, vc, k)
		}
		if got, want := vb-p.VDD/2, chargeSharingDeltaV(p, k); math.Abs(got-want) > 1e-9 {
			t.Errorf("dV(%d) = %g, want %g", k, got, want)
		}
	}
}

func TestChargeSharingDeltaVIncreasesWithK(t *testing.T) {
	p := Default()
	dv := func(k int) float64 { return chargeSharingDeltaV(p, k) }
	if !(dv(1) < dv(2) && dv(2) < dv(4)) {
		t.Fatalf("dV must grow with K: %g %g %g", dv(1), dv(2), dv(4))
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
	for _, c := range table3Targets {
		got, err := p.DeriveTRAS(c.k, c.m)
		if err != nil {
			t.Fatalf("DeriveTRAS(%d,%d): %v", c.k, c.m, err)
		}
		if dev := math.Abs(got-c.tRAS) / c.tRAS; dev > table3Tolerance {
			t.Errorf("tRAS(%d/%dx) = %.2f ns, paper %.2f ns (%.1f%% off)", c.m, c.k, got, c.tRAS, dev*100)
		}
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

// TestDefaultIsFitFixedPoint reproduces the calibration: the search,
// started from Default, finds no better parameters, so Default is the
// fitted set and its residual is the one the search reports.
func TestDefaultIsFitFixedPoint(t *testing.T) {
	p, res := fit(Default())
	if p != Default() {
		t.Errorf("fit moved the calibrated parameters:\n got  %+v\n want %+v", p, Default())
	}
	if want := table3Residual(Default()); res != want {
		t.Errorf("fit residual = %v, want table3Residual(Default()) = %v", res, want)
	}
	if res > table3Tolerance {
		t.Errorf("calibrated residual %.4f exceeds the %.2f tolerance", res, table3Tolerance)
	}
	t.Logf("residual (max relative deviation from Table 3): %.4f", res)
}

// fit is the calibration search that produced the constants in Default.
// It tunes the model's scalar knobs by cyclic coordinate descent to
// minimize the maximum relative deviation from the paper's Table 3
// tRCD/tRAS values, and returns the tuned parameters with the residual.
func fit(start Params) (Params, float64) {
	best := start
	bestErr := table3Residual(best)
	knobs := []struct {
		get func(*Params) *float64
		lo  float64
		hi  float64
	}{
		{func(p *Params) *float64 { return &p.TauAccess }, 0.3, 14},
		{func(p *Params) *float64 { return &p.TauSense }, 0.3, 28},
		{func(p *Params) *float64 { return &p.TSenseEnable }, 0, 8},
		{func(p *Params) *float64 { return &p.VAccessFrac }, 0.55, 0.97},
		{func(p *Params) *float64 { return &p.FullRestoreMargin }, 0.0005, 0.08},
		{func(p *Params) *float64 { return &p.Margin }, 0.05, 1},
		{func(p *Params) *float64 { return &p.CBitOverCCell }, 2, 10},
		{func(p *Params) *float64 { return &p.TWordline }, 0, 8},
		{func(p *Params) *float64 { return &p.SlewLimit }, 0.01, 2},
	}
	for pass := 0; pass < 40; pass++ {
		improved := false
		for _, knob := range knobs {
			v := knob.get(&best)
			span := (knob.hi - knob.lo) / math.Pow(2, float64(pass)/3)
			for _, cand := range []float64{*v - span/4, *v + span/4, *v - span/16, *v + span/16, *v - span/64, *v + span/64} {
				if cand < knob.lo || cand > knob.hi {
					continue
				}
				trial := best
				*knob.get(&trial) = cand
				if e := table3Residual(trial); e < bestErr {
					best, bestErr = trial, e
					improved = true
				}
			}
		}
		if !improved && pass > 20 {
			break
		}
	}
	return best, bestErr
}

// table3Targets are the paper's Table 3 tRCD/tRAS values: {k, m, tRCD, tRAS}.
var table3Targets = []struct {
	k, m       int
	tRCD, tRAS float64
}{
	{1, 1, 13.75, 35},
	{2, 1, 9.94, 37.52},
	{2, 2, 9.94, 21.46},
	{4, 1, 6.90, 46.51},
	{4, 2, 6.90, 22.78},
	{4, 4, 6.90, 20.00},
}

func table3Residual(p Params) float64 {
	if p.Validate() != nil {
		return math.Inf(1)
	}
	worst := 0.0
	seenK := map[int]bool{}
	for _, tgt := range table3Targets {
		if !seenK[tgt.k] {
			seenK[tgt.k] = true
			got, err := p.DeriveTRCD(tgt.k)
			if err != nil {
				return math.Inf(1)
			}
			worst = math.Max(worst, math.Abs(got-tgt.tRCD)/tgt.tRCD)
		}
		got, err := p.DeriveTRAS(tgt.k, tgt.m)
		if err != nil {
			return math.Inf(1)
		}
		worst = math.Max(worst, math.Abs(got-tgt.tRAS)/tgt.tRAS)
	}
	return worst
}
