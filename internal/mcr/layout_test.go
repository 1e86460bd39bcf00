package mcr

import (
	"testing"
	"testing/quick"
)

func combined(t *testing.T) Layout {
	t.Helper()
	l, err := NewLayout(Band{K: 4, M: 4, Region: 0.25}, Band{K: 2, M: 2, Region: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLayoutValidation(t *testing.T) {
	if _, err := NewLayout(Band{K: 4, M: 4, Region: 0.5}, Band{K: 4, M: 2, Region: 0.25}); err == nil {
		t.Fatal("duplicate K bands must be rejected")
	}
	if _, err := NewLayout(Band{K: 4, M: 4, Region: 0.75}, Band{K: 2, M: 2, Region: 0.5}); err == nil {
		t.Fatal("regions summing beyond 1 must be rejected")
	}
	if _, err := NewLayout(Band{K: 1, M: 1, Region: 0.25}); err == nil {
		t.Fatal("K=1 bands must be rejected")
	}
	if _, err := NewLayout(Band{K: 4, M: 3, Region: 0.25}); err == nil {
		t.Fatal("invalid M must be rejected")
	}
	// Order normalization: largest K first regardless of argument order.
	l, err := NewLayout(Band{K: 2, M: 2, Region: 0.25}, Band{K: 4, M: 4, Region: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if l.Bands[0].K != 4 {
		t.Fatal("bands must sort largest K first")
	}
}

func TestLayoutOfMode(t *testing.T) {
	if LayoutOf(Off()).Enabled() {
		t.Fatal("off mode has an empty layout")
	}
	l := LayoutOf(mustMode(4, 2, 0.5))
	if len(l.Bands) != 1 || l.Bands[0] != (Band{K: 4, M: 2, Region: 0.5}) {
		t.Fatalf("layout of mode wrong: %+v", l.Bands)
	}
	if l.MaxK() != 4 || LayoutOf(Off()).MaxK() != 1 {
		t.Fatal("MaxK wrong")
	}
}

func TestLayoutString(t *testing.T) {
	l := Layout{Bands: []Band{{K: 4, M: 4, Region: 0.25}, {K: 2, M: 2, Region: 0.25}}}
	if got := l.String(); got != "layout [4/4x/25%+2/2x/25%]" {
		t.Fatalf("String() = %q", got)
	}
	if (Layout{}).String() != "layout [off]" {
		t.Fatal("empty layout string wrong")
	}
}

// TestBandPlacement: the 4x band sits nearest the sense amplifiers
// (highest local addresses), the 2x band just below, normal rows below
// that.
func TestBandPlacement(t *testing.T) {
	g, err := NewLayoutGenerator(combined(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		local int
		k     int
	}{
		{0, 1}, {255, 1}, // lower half: normal
		{256, 2}, {383, 2}, // 2x band
		{384, 4}, {511, 4}, // 4x band at the top
	}
	for _, c := range cases {
		if got := g.KAt(c.local); got != c.k {
			t.Errorf("KAt(%d) = %d, want %d", c.local, got, c.k)
		}
		// Pattern repeats per subarray.
		if got := g.KAt(1024 + c.local); got != c.k {
			t.Errorf("KAt(%d) = %d, want %d (subarray repeat)", 1024+c.local, got, c.k)
		}
	}
	if g.MAt(400) != 4 || g.MAt(300) != 2 || g.MAt(10) != 1 {
		t.Fatal("MAt per band wrong")
	}
}

func TestLayoutClones(t *testing.T) {
	g, err := NewLayoutGenerator(combined(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CloneRows(385); len(got) != 4 || got[0] != 384 {
		t.Fatalf("4x clones = %v", got)
	}
	if got := g.CloneRows(257); len(got) != 2 || got[0] != 256 {
		t.Fatalf("2x clones = %v", got)
	}
	if got := g.CloneRows(5); len(got) != 1 || got[0] != 5 {
		t.Fatalf("normal clones = %v", got)
	}
	if !g.SameMCR(384, 387) || g.SameMCR(387, 388) {
		t.Fatal("4x SameMCR wrong")
	}
	if !g.SameMCR(256, 257) || g.SameMCR(257, 258) {
		t.Fatal("2x SameMCR wrong")
	}
	if g.SameMCR(5, 5) {
		t.Fatal("normal rows are not MCRs")
	}
	if g.MCRBase(386) != 384 || g.MCRBase(259) != 258 || g.MCRBase(7) != 7 {
		t.Fatal("MCRBase per band wrong")
	}
}

func TestBandSlots(t *testing.T) {
	g, err := NewLayoutGenerator(combined(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	s4 := g.BandSlots(4, 2048) // 4 subarrays
	// 128 rows per subarray in the 4x band / 4 = 32 bases, x4 subarrays.
	if len(s4) != 128 {
		t.Fatalf("4x slots = %d, want 128", len(s4))
	}
	for _, s := range s4 {
		if g.KAt(s) != 4 || s%4 != 0 {
			t.Fatalf("slot %d is not a 4x MCR base", s)
		}
	}
	s2 := g.BandSlots(2, 2048)
	if len(s2) != 256 {
		t.Fatalf("2x slots = %d, want 256", len(s2))
	}
	if g.BandSlots(8, 2048) != nil {
		t.Fatal("missing bands have no slots")
	}
}

// Property: every row belongs to exactly the band its clones belong to.
func TestLayoutClonesConsistentQuick(t *testing.T) {
	g, err := NewLayoutGenerator(combined(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(raw uint16) bool {
		row := int(raw) % 4096
		k := g.KAt(row)
		clones := g.CloneRows(row)
		if len(clones) != k {
			return false
		}
		for _, c := range clones {
			if g.KAt(c) != k || g.MCRBase(c) != g.MCRBase(row) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLayoutSchedulerPerBand(t *testing.T) {
	g, err := NewLayoutGenerator(combined(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLayoutScheduler(g, KtoN1K, 32768)
	if err != nil {
		t.Fatal(err)
	}
	perK, skipped := window(s)
	// 25% of rows in each band, 50% normal.
	if perK[4] != RefsPerWindow/4 || perK[2] != RefsPerWindow/4 || perK[1] != RefsPerWindow/2 {
		t.Fatalf("per-band REF counts wrong: %+v", perK)
	}
	// M=K in both bands: nothing skipped.
	if len(skipped) != 0 {
		t.Fatalf("unexpected skips: %+v", skipped)
	}
	// Every plan is homogeneous in K.
	for c := 0; c < RefsPerWindow; c += 97 {
		op := s.Plan(c)
		for r := op.Row; r < 32768; r += RefsPerWindow {
			if g.KAt(r) != op.K {
				t.Fatalf("plan %d mixes bands", c)
			}
		}
	}
}

func TestLayoutSchedulerSkipping(t *testing.T) {
	l, err := NewLayout(Band{K: 4, M: 2, Region: 0.25}, Band{K: 2, M: 1, Region: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewLayoutGenerator(l, 512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLayoutScheduler(g, KtoN1K, 32768)
	if err != nil {
		t.Fatal(err)
	}
	perK, skipped := window(s)
	// 4x band keeps 2 of 4 -> skips half its REFs; 2x band keeps 1 of 2.
	if got := skipped[4]; got != perK[4]/2 {
		t.Fatalf("4x skips = %d, want %d", got, perK[4]/2)
	}
	if got := skipped[2]; got != perK[2]/2 {
		t.Fatalf("2x skips = %d, want %d", got, perK[2]/2)
	}
	if skipped[1] != 0 {
		t.Fatal("normal rows are never skipped")
	}
}

func TestLayoutSchedulerRejects(t *testing.T) {
	g, err := NewLayoutGenerator(Layout{}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLayoutScheduler(nil, KtoN1K, 32768); err == nil {
		t.Fatal("nil generator must be rejected")
	}
	if _, err := NewLayoutScheduler(g, KtoN1K, 12345); err == nil {
		t.Fatal("non-power-of-two rows must be rejected")
	}
	if _, err := NewLayoutScheduler(g, KtoN1K, 2048); err == nil {
		t.Fatal("too-few rows must be rejected")
	}
}

// TestLayoutMatchesGeneratorForSingleBand: a single-band layout behaves
// identically to the simple Generator.
func TestLayoutMatchesGeneratorForSingleBand(t *testing.T) {
	mode := mustMode(4, 4, 0.5)
	simple, err := NewGenerator(mode, 512)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLayoutGenerator(LayoutOf(mode), 512)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 2048; row++ {
		if simple.InMCR(row) != lg.InMCR(row) {
			t.Fatalf("InMCR mismatch at %d", row)
		}
		if simple.MCRBase(row) != lg.MCRBase(row) {
			t.Fatalf("MCRBase mismatch at %d", row)
		}
	}
}
