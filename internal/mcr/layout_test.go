package mcr

import (
	"testing"

	"repro/internal/timing"
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
	g, err := NewGenerator(combined(t), 512)
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
	g, err := NewGenerator(combined(t), 512)
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
	g, err := NewGenerator(combined(t), 512)
	if err != nil {
		t.Fatal(err)
	}
	s4 := g.BandSlots(4, 2048) // 4 subarrays
	// 128 rows per subarray in the 4x band / 4 = 32 bases, x4 subarrays.
	if s4.N != 128 {
		t.Fatalf("4x slots = %d, want 128", s4.N)
	}
	for i := 0; i < s4.N; i++ {
		if s := s4.At(i); g.KAt(s) != 4 || s%4 != 0 || i > 0 && s <= s4.At(i-1) {
			t.Fatalf("slot %d (%d) is not a 4x MCR base in address order", i, s)
		}
	}
	s2 := g.BandSlots(2, 2048)
	if s2.N != 256 || s2.At(0) != 256 || s2.At(63) != 382 || s2.At(64) != 768 {
		t.Fatalf("2x slots = %d from %d, want 256 from 256 with 64 per subarray", s2.N, s2.At(0))
	}
	if g.BandSlots(8, 2048).N != 0 {
		t.Fatal("missing bands have no slots")
	}
}

func TestLayoutSchedulerPerBand(t *testing.T) {
	g, err := NewGenerator(combined(t), 512)
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
	g, err := NewGenerator(l, 512)
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
	g, err := NewGenerator(Layout{}, 512)
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

// TestGeneratorClosedFormPerMode checks the single-band generator of
// every Table 3 mode at every region against the paper's closed form, over
// every row of four 512-row subarrays: a row is ganged iff its local index
// is in the top Region of the subarray, its gang is the K rows from
// row &^ (K-1), and the band keeps M refreshes per window.
func TestGeneratorClosedFormPerMode(t *testing.T) {
	const sub = 512
	modes := []Mode{Off()}
	for _, mt := range timing.Table3() {
		if mt.K == 1 {
			continue
		}
		for _, reg := range []float64{0.25, 0.5, 0.75, 1} {
			modes = append(modes, mustMode(mt.K, mt.M, reg))
		}
	}
	for _, mode := range modes {
		g, err := NewGenerator(LayoutOf(mode), sub)
		if err != nil {
			t.Fatal(err)
		}
		first := sub - int(mode.Region*sub)
		if !mode.Enabled() {
			first = sub
		}
		for row := 0; row < 4*sub; row++ {
			in := row%sub >= first
			k, m := 1, 1
			if in {
				k, m = mode.K, mode.M
			}
			base := row &^ (k - 1)
			if g.InMCR(row) != in || g.KAt(row) != k || g.MAt(row) != m || g.MCRBase(row) != base {
				t.Fatalf("%v row %d: InMCR %v KAt %d MAt %d MCRBase %d, want %v %d %d %d",
					mode, row, g.InMCR(row), g.KAt(row), g.MAt(row), g.MCRBase(row), in, k, m, base)
			}
			if clones := g.CloneRows(row); len(clones) != k || clones[0] != base || clones[k-1] != base+k-1 {
				t.Fatalf("%v row %d: CloneRows %v, want %d rows from %d", mode, row, clones, k, base)
			}
			if g.SameMCR(row, row^1) != (in && k > 1) {
				t.Fatalf("%v rows %d/%d: SameMCR %v", mode, row, row^1, !(in && k > 1))
			}
		}
		if n, want := g.BandSlots(mode.K, 4*sub).N, 4*(sub-first)/mode.K; mode.Enabled() && n != want {
			t.Fatalf("%v: %d band slots in four subarrays, want %d", mode, n, want)
		}
	}
}
