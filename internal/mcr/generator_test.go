package mcr

import (
	"testing"
	"testing/quick"
)

func newGen(t *testing.T, mode Mode) *Generator {
	t.Helper()
	g, err := NewGenerator(LayoutOf(mode), 512)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGeneratorRejects(t *testing.T) {
	if _, err := NewGenerator(LayoutOf(Mode{K: 3, M: 1, Region: 0.5}), 512); err == nil {
		t.Fatal("invalid mode must be rejected")
	}
	if _, err := NewGenerator(LayoutOf(mustMode(2, 2, 0.5)), 300); err == nil {
		t.Fatal("non-power-of-two subarray must be rejected")
	}
	if _, err := NewGenerator(LayoutOf(mustMode(2, 2, 0.5)), 0); err == nil {
		t.Fatal("zero subarray must be rejected")
	}
	if _, err := NewGenerator(LayoutOf(mustMode(4, 4, 0.25)), 8); err == nil {
		t.Fatal("a region of 2 rows is not a whole 4x MCR and must be rejected")
	}
}

// TestRegionPlacement pins the paper's detector examples: with 512-row
// subarrays, 50%reg means A8=1 (local index >= 256) and 25%reg means
// A8A7=11 (local index >= 384).
func TestRegionPlacement(t *testing.T) {
	g50 := newGen(t, mustMode(4, 4, 0.5))
	g25 := newGen(t, mustMode(4, 4, 0.25))
	for local := 0; local < 512; local++ {
		if got, want := g50.InMCR(local), local>>8&1 == 1; got != want {
			t.Fatalf("50%%reg: InMCR(%d) = %v, want %v (A8 rule)", local, got, want)
		}
		if got, want := g25.InMCR(local), local>>7&3 == 3; got != want {
			t.Fatalf("25%%reg: InMCR(%d) = %v, want %v (A8A7 rule)", local, got, want)
		}
	}
}

func TestRegionAppliesPerSubarray(t *testing.T) {
	g := newGen(t, mustMode(2, 2, 0.5))
	// The same local pattern must repeat in every subarray.
	for _, base := range []int{0, 512, 1024, 8192} {
		if g.InMCR(base + 100) {
			t.Fatalf("row %d is in the lower half, not MCR", base+100)
		}
		if !g.InMCR(base + 300) {
			t.Fatalf("row %d is in the upper half, must be MCR", base+300)
		}
	}
}

func TestRegionFullAndOff(t *testing.T) {
	full := newGen(t, mustMode(4, 4, 1))
	off := newGen(t, Off())
	for _, row := range []int{0, 1, 255, 256, 511, 512, 700} {
		if !full.InMCR(row) {
			t.Fatalf("100%%reg must include row %d", row)
		}
		if off.InMCR(row) {
			t.Fatalf("off mode must not include row %d", row)
		}
	}
	if n := len(full.BandSlots(4, 512)); n != 512/4 {
		t.Fatalf("100%%reg must hold 128 4x MCRs per subarray, got %d", n)
	}
	if off.Layout().Enabled() {
		t.Fatal("off mode must have no band")
	}
}

func TestInMCRNegativeRow(t *testing.T) {
	g := newGen(t, mustMode(4, 4, 1))
	if g.InMCR(-1) {
		t.Fatal("negative rows are never in an MCR")
	}
}

func TestMCRBaseAndClones(t *testing.T) {
	g := newGen(t, mustMode(4, 4, 1))
	if got := g.MCRBase(0x1f7); got != 0x1f4 {
		t.Fatalf("MCRBase(0x1f7) = %#x, want 0x1f4", got)
	}
	clones := g.CloneRows(0x1f6)
	want := []int{0x1f4, 0x1f5, 0x1f6, 0x1f7}
	if len(clones) != 4 {
		t.Fatalf("4x MCR must have 4 clones, got %d", len(clones))
	}
	for i := range clones {
		if clones[i] != want[i] {
			t.Fatalf("clones = %v, want %v", clones, want)
		}
	}
	// Normal row: just itself.
	gHalf := newGen(t, mustMode(4, 4, 0.5))
	if clones := gHalf.CloneRows(10); len(clones) != 1 || clones[0] != 10 {
		t.Fatalf("normal row clones = %v, want [10]", clones)
	}
	if gHalf.MCRBase(10) != 10 {
		t.Fatal("normal rows keep their address")
	}
}

func TestSameMCR(t *testing.T) {
	g := newGen(t, mustMode(2, 2, 1))
	if !g.SameMCR(256, 257) {
		t.Fatal("rows 256/257 form one 2x MCR")
	}
	if g.SameMCR(257, 258) {
		t.Fatal("rows 257/258 are different MCRs")
	}
	gHalf := newGen(t, mustMode(2, 2, 0.5))
	if gHalf.SameMCR(0, 1) {
		t.Fatal("normal rows are never in the same MCR")
	}
}

// TestMCRAddressNotation pins the paper's Fig 4 example: in a 4-bit row
// address space, MCR address 00XX covers rows 0000..0011.
func TestMCRAddressNotation(t *testing.T) {
	g, err := NewGenerator(LayoutOf(mustMode(4, 4, 1)), 16)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row <= 3; row++ {
		if g.MCRBase(row) != 0 {
			t.Fatalf("row %04b must belong to MCR 00XX", row)
		}
	}
	if g.MCRBase(4) != 4 {
		t.Fatal("row 0100 belongs to MCR 01XX")
	}
}

// internalAddress models the Fig 7(b) wordline-driver inputs for a row: it
// returns the N-bit true (A) and complement (/A) internal address patterns
// after the address changer, where forcing both bits high on the low
// log2(K) positions selects all K clone wordlines. Bit i of the results is
// the logic level of A_i and /A_i respectively.
func internalAddress(g *Generator, row, nbits int) (a, na uint64) {
	r, low := uint64(row), uint64(g.KAt(row)-1)
	a = r&(1<<nbits-1) | low
	na = ^r&(1<<nbits-1) | low
	return a, na
}

// wordlineSelected reports whether the wordline of physical row wl fires for
// the internal address pair (a, na): every driver input must be high, i.e.
// for each bit position the pattern must match either A or /A.
func wordlineSelected(wl int, nbits int, a, na uint64) bool {
	for i := 0; i < nbits; i++ {
		bit := uint64(wl>>i) & 1
		if bit == 1 {
			if a>>i&1 == 0 {
				return false
			}
		} else if na>>i&1 == 0 {
			return false
		}
	}
	return true
}

// TestInternalAddressSelectsClones verifies the Fig 7 wordline-driver trick:
// forcing the low log2(K) bits of both A and /A high selects exactly the K
// clone wordlines.
func TestInternalAddressSelectsClones(t *testing.T) {
	const nbits = 9
	for _, mode := range []Mode{mustMode(2, 2, 1), mustMode(4, 4, 1)} {
		g := newGen(t, mode)
		for _, row := range []int{0, 5, 129, 511} {
			a, na := internalAddress(g, row, nbits)
			selected := map[int]bool{}
			for wl := 0; wl < 512; wl++ {
				if wordlineSelected(wl, nbits, a, na) {
					selected[wl] = true
				}
			}
			want := g.CloneRows(row)
			if len(selected) != len(want) {
				t.Fatalf("%v row %d: %d wordlines fired, want %d", mode, row, len(selected), len(want))
			}
			for _, w := range want {
				if !selected[w] {
					t.Fatalf("%v row %d: wordline %d did not fire", mode, row, w)
				}
			}
		}
	}
}

// TestInternalAddressNormalRow: outside the region exactly one wordline
// fires.
func TestInternalAddressNormalRow(t *testing.T) {
	g := newGen(t, mustMode(4, 4, 0.5))
	a, na := internalAddress(g, 37, 9)
	count := 0
	for wl := 0; wl < 512; wl++ {
		if wordlineSelected(wl, 9, a, na) {
			count++
			if wl != 37 {
				t.Fatalf("wrong wordline %d fired", wl)
			}
		}
	}
	if count != 1 {
		t.Fatalf("%d wordlines fired for a normal row", count)
	}
}

// Property: MCRBase is idempotent and clones always share it.
func TestMCRBaseQuick(t *testing.T) {
	g := newGen(t, mustMode(4, 4, 0.75))
	err := quick.Check(func(raw uint16) bool {
		row := int(raw) % (512 * 16)
		base := g.MCRBase(row)
		if g.MCRBase(base) != base {
			return false
		}
		for _, c := range g.CloneRows(row) {
			if g.MCRBase(c) != base {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: the region fraction of rows detected matches the mode's L.
func TestRegionFractionMatchesMode(t *testing.T) {
	for _, reg := range []float64{0.25, 0.5, 0.75, 1} {
		g := newGen(t, mustMode(2, 2, reg))
		in := 0
		for row := 0; row < 512; row++ {
			if g.InMCR(row) {
				in++
			}
		}
		if got := float64(in) / 512; got != reg {
			t.Errorf("region %g: detected fraction %g", reg, got)
		}
	}
}
