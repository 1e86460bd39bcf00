package mcr

import "testing"

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

func TestInMCRNegativeRow(t *testing.T) {
	g := newGen(t, mustMode(4, 4, 1))
	if g.InMCR(-1) {
		t.Fatal("negative rows are never in an MCR")
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
