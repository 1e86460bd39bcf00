package alloc

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/timing"
)

// isIdentity reports whether the map relocates nothing.
func isIdentity(m *RowMap) bool {
	for _, pb := range m.perBank {
		if pb != nil {
			return false
		}
	}
	return true
}

// movedRows counts rows that do not map to themselves.
func movedRows(m *RowMap) int {
	n := 0
	for _, pb := range m.perBank {
		for _, v := range pb {
			if v != emptySlot && v>>32 != v&0xFFFFFFFF {
				n++
			}
		}
	}
	return n
}

// profileBasedLayout is FromProfileLayout on a profile given as counts
// keyed by bank and row, as ProfileBased takes them. It checks no bank: a
// bank past the geometry's lengthens the profile, so that
// FromProfileLayout is what refuses it. Banks must not be negative.
func profileBasedLayout(geom core.Geometry, gen *mcr.Generator, counts map[int]map[int]int64, ratio4, ratio2 float64) (*RowMap, error) {
	n := geom.Channels * geom.Ranks * geom.Banks
	for bank := range counts {
		n = max(n, bank+1)
	}
	prof := make(Profile, n)
	for bank, rows := range counts {
		for r, c := range rows {
			prof[bank] = append(prof[bank], Heat{Row: r, Count: c})
		}
	}
	return FromProfileLayout(geom, gen, prof, ratio4, ratio2)
}

func geom() core.Geometry { return core.SingleCoreGeometry() }

func gen(t *testing.T, mode mcr.Mode) *mcr.Generator {
	t.Helper()
	g, err := mcr.NewGenerator(mcr.LayoutOf(mode), geom().RowsPerSubarray())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIdentityMapsNothing(t *testing.T) {
	m := Identity(geom())
	if !isIdentity(m) || movedRows(m) != 0 {
		t.Fatal("identity map must be the identity")
	}
	a := core.Address{Channel: 0, Rank: 1, Bank: 3, Row: 777, Column: 4}
	if got := m.Map(a); got != a {
		t.Fatalf("identity changed the address: %v -> %v", a, got)
	}
}

func TestProfileBasedMovesHotRows(t *testing.T) {
	g := gen(t, mcrtest.Mode(4, 4, 0.5))
	counts := map[int]map[int]int64{
		0: {10: 1000, 20: 900, 30: 800, 40: 5, 50: 4, 60: 3, 70: 2, 80: 1, 90: 1, 95: 1},
	}
	m, err := ProfileBased(geom(), g, counts, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// 30% of 10 touched rows = 3 hottest rows must land on MCR bases.
	for _, hot := range []int{10, 20, 30} {
		a := m.Map(core.Address{Row: hot})
		if !g.InMCR(a.Row) {
			t.Errorf("hot row %d mapped to %d, not in the MCR region", hot, a.Row)
		}
		if g.MCRBase(a.Row) != a.Row {
			t.Errorf("hot row %d mapped to %d, not an MCR base", hot, a.Row)
		}
	}
	// Cold rows stay put.
	if m.Map(core.Address{Row: 80}).Row != 80 {
		t.Error("cold rows must not move")
	}
	// Other banks untouched.
	if m.Map(core.Address{Bank: 1, Row: 10}).Row != 10 {
		t.Error("unprofiled banks must stay identity")
	}
}

func TestProfileBasedPreservesBankAndColumn(t *testing.T) {
	g := gen(t, mcrtest.Mode(2, 2, 0.5))
	counts := map[int]map[int]int64{
		5: {1: 100, 2: 50},
	}
	m, err := ProfileBased(geom(), g, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	// BankID 5 is rank 0, bank 5 in the single-core geometry.
	a := core.Address{Rank: 0, Bank: 5, Row: 1, Column: 17}
	got := m.Map(a)
	if got.Bank != a.Bank || got.Rank != a.Rank || got.Channel != a.Channel || got.Column != a.Column {
		t.Fatalf("allocation must only change the row: %v -> %v", a, got)
	}
	if got.Row == a.Row {
		t.Fatal("hot row must have moved")
	}
}

// TestPermutationBijective: the map never aliases two rows onto one.
func TestPermutationBijective(t *testing.T) {
	g := gen(t, mcrtest.Mode(4, 4, 0.5))
	counts := map[int]map[int]int64{0: {}}
	for r := 0; r < 2000; r++ {
		counts[0][r] = int64(2000 - r)
	}
	m, err := ProfileBased(geom(), g, counts, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool, geom().Rows)
	for r := 0; r < geom().Rows; r++ {
		got := m.Map(core.Address{Row: r}).Row
		if seen[got] {
			t.Fatalf("row %d aliases another row onto %d", r, got)
		}
		seen[got] = true
	}
}

func TestProfileBasedRejects(t *testing.T) {
	g := gen(t, mcrtest.Mode(2, 2, 0.5))
	if _, err := ProfileBased(geom(), g, nil, -0.1); err == nil {
		t.Fatal("negative ratio must be rejected")
	}
	if _, err := ProfileBased(geom(), g, nil, 1.1); err == nil {
		t.Fatal("ratio above one must be rejected")
	}
	if _, err := ProfileBased(geom(), g, nil, math.NaN()); err == nil {
		t.Fatal("NaN ratio must be rejected")
	}
	if _, err := ProfileBased(geom(), layoutGen(t), nil, 0.5); !errors.Is(err, ErrMultiBand) {
		t.Fatalf("a combined layout must be rejected with ErrMultiBand, got %v", err)
	}
	if _, err := ProfileBased(geom(), g, map[int]map[int]int64{99999: {1: 1}}, 0.5); err == nil {
		t.Fatal("out-of-range bank must be rejected")
	}
	if _, err := ProfileBased(geom(), g, map[int]map[int]int64{0: {1 << 30: 1}}, 0.5); err == nil {
		t.Fatal("out-of-range row must be rejected")
	}
	// A profile longer than the geometry's banks: FromProfile's own check.
	banks := geom().Channels * geom().Ranks * geom().Banks
	prof := make(Profile, banks+1)
	prof[banks] = []Heat{{Row: 1, Count: 1}}
	if _, err := FromProfile(geom(), g, prof, 0.5); err == nil {
		t.Fatal("FromProfile must reject a bank past the geometry's")
	}
}

func TestProfileBasedZeroRatioOrDisabledMode(t *testing.T) {
	counts := map[int]map[int]int64{0: {1: 10}}
	g := gen(t, mcrtest.Mode(2, 2, 0.5))
	m, err := ProfileBased(geom(), g, counts, 0)
	if err != nil || !isIdentity(m) {
		t.Fatal("zero ratio must yield the identity")
	}
	gOff := gen(t, mcr.Off())
	m, err = ProfileBased(geom(), gOff, counts, 0.5)
	if err != nil || !isIdentity(m) {
		t.Fatal("disabled mode must yield the identity")
	}
}

// TestMCRRequestFraction pins the footnote-9 machinery: with a heavily
// skewed profile, a small allocation ratio captures most requests.
func TestMCRRequestFraction(t *testing.T) {
	g := gen(t, mcrtest.Mode(4, 4, 0.5))
	counts := map[int]map[int]int64{0: {}}
	// 10 hot rows with 100 accesses, 90 cold rows with 1.
	for r := 0; r < 10; r++ {
		counts[0][r] = 100
	}
	for r := 10; r < 100; r++ {
		counts[0][r] = 1
	}
	m, err := ProfileBased(geom(), g, counts, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var total, inMCR int64
	for r, c := range counts[0] {
		total += c
		if g.InMCR(m.Map(core.Address{Row: r}).Row) {
			inMCR += c
		}
	}
	if frac, want := float64(inMCR)/float64(total), 1000.0/1090.0; frac < want-1e-9 {
		t.Fatalf("captured fraction %.3f, want >= %.3f", frac, want)
	}
}

// Property: mapping any address keeps it inside the geometry.
func TestMapStaysInRange(t *testing.T) {
	g := gen(t, mcrtest.Mode(4, 4, 1))
	counts := map[int]map[int]int64{3: {}}
	for r := 0; r < 500; r++ {
		counts[3][r*7%geom().Rows] = int64(r)
	}
	m, err := ProfileBased(geom(), g, counts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(raw uint32) bool {
		row := int(raw) % geom().Rows
		got := m.Map(core.Address{Rank: 0, Bank: 3, Row: row})
		return got.Row >= 0 && got.Row < geom().Rows
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestHonorsSlotCapacity: requesting more hot rows than the region has MCR
// bases degrades gracefully.
func TestHonorsSlotCapacity(t *testing.T) {
	smallGeom := core.Geometry{Channels: 1, Ranks: 1, Banks: 1, Rows: 16384, Columns: 128, SubarrayLog: 9}
	g, err := mcr.NewGenerator(mcr.LayoutOf(mcrtest.Mode(4, 4, 0.25)), 512)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]map[int]int64{0: {}}
	for r := 0; r < 16384; r++ {
		counts[0][r] = int64(16384 - r)
	}
	m, err := ProfileBased(smallGeom, g, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Region = 128 rows per 512-row subarray, 32 subarrays, /4 per MCR =
	// 1024 usable bases; at most that many rows move in each direction.
	if moved := movedRows(m); moved > 2*1024 {
		t.Fatalf("moved %d rows, capacity allows at most 2048 endpoints", moved)
	}
}

func layoutGen(t *testing.T) *mcr.Generator {
	t.Helper()
	l, err := mcr.NewLayout(
		mcr.Band{K: 4, M: 4, Region: 0.25},
		mcr.Band{K: 2, M: 2, Region: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mcr.NewGenerator(l, geom().RowsPerSubarray())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestProfileBasedLayoutTiers: the hottest tier lands on 4x bases, the
// next on 2x bases, and the permutation stays a bijection.
func TestProfileBasedLayoutTiers(t *testing.T) {
	g := layoutGen(t)
	counts := map[int]map[int]int64{0: {}}
	for r := 0; r < 100; r++ {
		counts[0][r] = int64(1000 - r) // rows 0..99, strictly cooling
	}
	m, err := profileBasedLayout(geom(), g, counts, 0.05, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Top 5 rows (5% of 100) -> 4x band; next 10 -> 2x band.
	for r := 0; r < 5; r++ {
		got := m.Map(core.Address{Row: r}).Row
		if g.KAt(got) != 4 {
			t.Fatalf("hot row %d landed in K=%d, want the 4x band", r, g.KAt(got))
		}
		if g.MCRBase(got) != got {
			t.Fatalf("hot row %d must sit on an MCR base, got %d", r, got)
		}
	}
	for r := 5; r < 15; r++ {
		got := m.Map(core.Address{Row: r}).Row
		if g.KAt(got) != 2 {
			t.Fatalf("warm row %d landed in K=%d, want the 2x band", r, g.KAt(got))
		}
	}
	// Cold rows stay where they were (row 50 is outside both tiers).
	if got := m.Map(core.Address{Row: 50}).Row; g.KAt(got) != 1 {
		t.Fatalf("cold row moved into a band: %d", got)
	}
	// Bijection over the whole bank.
	seen := map[int]bool{}
	for r := 0; r < geom().Rows; r++ {
		got := m.Map(core.Address{Row: r}).Row
		if seen[got] {
			t.Fatalf("row %d aliases onto %d", r, got)
		}
		seen[got] = true
	}
}

func TestProfileBasedLayoutRejects(t *testing.T) {
	g := layoutGen(t)
	if _, err := profileBasedLayout(geom(), g, nil, -0.1, 0); err == nil {
		t.Fatal("negative ratio must be rejected")
	}
	if _, err := profileBasedLayout(geom(), g, nil, 0.6, 0.6); err == nil {
		t.Fatal("ratios beyond 1 must be rejected")
	}
	if _, err := profileBasedLayout(geom(), g, nil, math.NaN(), 0); err == nil {
		t.Fatal("NaN ratio must be rejected")
	}
	if _, err := profileBasedLayout(geom(), g, map[int]map[int]int64{999999: {0: 1}}, 0.1, 0.1); err == nil {
		t.Fatal("bad bank must be rejected")
	}
	if _, err := profileBasedLayout(geom(), g, map[int]map[int]int64{0: {1 << 30: 1}}, 0.1, 0.1); err == nil {
		t.Fatal("bad row must be rejected")
	}
	banks := geom().Channels * geom().Ranks * geom().Banks
	prof := make(Profile, banks+1)
	prof[banks] = []Heat{{Row: 1, Count: 1}}
	if _, err := FromProfileLayout(geom(), g, prof, 0.1, 0.1); err == nil {
		t.Fatal("FromProfileLayout must reject a bank past the geometry's")
	}
	// Zero ratios: identity.
	m, err := profileBasedLayout(geom(), g, map[int]map[int]int64{0: {1: 5}}, 0, 0)
	if err != nil || !isIdentity(m) {
		t.Fatal("zero ratios must yield the identity")
	}
}

// TestProfileBasedLayoutRowAlreadyPlaced: a hot row that naturally sits in
// the right band is left alone.
func TestProfileBasedLayoutRowAlreadyPlaced(t *testing.T) {
	g := layoutGen(t)
	// Local 384 is a 4x base in the first subarray.
	counts := map[int]map[int]int64{0: {384: 100, 5: 50}}
	m, err := profileBasedLayout(geom(), g, counts, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Map(core.Address{Row: 384}).Row; got != 384 {
		t.Fatalf("row already in the 4x band moved to %d", got)
	}
	if got := m.Map(core.Address{Row: 5}).Row; g.KAt(got) == 1 {
		t.Fatal("the second hot row must have been promoted")
	}
}

// FuzzProfileBased drives both allocators with arbitrary profiles and
// ratios on every single-band Table 3 mode, the off mode and the combined
// 4x+2x layout, over a small two-bank geometry: each call returns an error
// or a row map whose every bank is a bijection. A NaN ratio is an error,
// and ProfileBased refuses the combined layout with ErrMultiBand.
func FuzzProfileBased(f *testing.F) {
	small := core.Geometry{Channels: 1, Ranks: 1, Banks: 2, Rows: 2048, Columns: 128, SubarrayLog: 9}
	layouts := []mcr.Layout{{}}
	for _, mt := range timing.Table3() {
		if mt.K == 1 {
			continue
		}
		for _, reg := range []float64{0.25, 0.5, 0.75, 1} {
			layouts = append(layouts, mcr.LayoutOf(mcrtest.Mode(mt.K, mt.M, reg)))
		}
	}
	combined, err := mcr.NewLayout(mcr.Band{K: 4, M: 4, Region: 0.25}, mcr.Band{K: 2, M: 2, Region: 0.25})
	if err != nil {
		f.Fatal(err)
	}
	layouts = append(layouts, combined)
	gens := make([]*mcr.Generator, len(layouts))
	for i, l := range layouts {
		if gens[i], err = mcr.NewGenerator(l, small.RowsPerSubarray()); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{0, 0, 1, 9, 1, 7, 0, 3}, 0.3, 0.2, uint8(5))
	f.Add([]byte{0, 1, 0, 200, 0, 2, 0, 100, 1, 255, 7, 50}, 1.0, 0.0, uint8(len(layouts)-1))
	f.Add([]byte{0, 0, 0, 1}, math.NaN(), 0.1, uint8(20))
	f.Fuzz(func(t *testing.T, data []byte, ratio, ratio2 float64, which uint8) {
		g := gens[int(which)%len(gens)]
		// Four bytes a sample: bank (one past the last is out of range),
		// row (up to 1/8 past the bank is out of range), signed count.
		counts := map[int]map[int]int64{}
		for ; len(data) >= 4; data = data[4:] {
			bank := int(data[0]) % (small.Banks + 1)
			row := (int(data[1])<<8 | int(data[2])) % (small.Rows * 9 / 8)
			if counts[bank] == nil {
				counts[bank] = map[int]int64{}
			}
			counts[bank][row] += int64(int8(data[3]))
		}
		check := func(name string, m *RowMap, err error, nan bool) {
			if err != nil {
				return
			}
			if nan {
				t.Fatalf("%s: NaN ratio accepted", name)
			}
			for bank := 0; bank < small.Banks; bank++ {
				seen := make([]bool, small.Rows)
				for row := 0; row < small.Rows; row++ {
					got := m.Map(core.Address{Bank: bank, Row: row}).Row
					if got < 0 || got >= small.Rows || seen[got] {
						t.Fatalf("%s on %v: bank %d row %d maps to %d, not a bijection", name, g.Layout(), bank, row, got)
					}
					seen[got] = true
				}
			}
		}
		m, err := ProfileBased(small, g, counts, ratio)
		if len(g.Layout().Bands) > 1 && ratio >= 0 && ratio <= 1 && !errors.Is(err, ErrMultiBand) {
			t.Fatalf("ProfileBased on %v: err %v, want ErrMultiBand", g.Layout(), err)
		}
		check("ProfileBased", m, err, math.IsNaN(ratio))
		m, err = profileBasedLayout(small, g, counts, ratio, ratio2)
		check("FromProfileLayout", m, err, math.IsNaN(ratio) || math.IsNaN(ratio2))
	})
}

// TestHottestIsTheSortedPrefix: selecting a bank's n hottest rows gives
// the first n rows of the full hottest-first sort, whatever the counts
// (few distinct ones, so that ties fall to the row) and n.
func TestHottestIsTheSortedPrefix(t *testing.T) {
	f := func(counts []uint8, n uint8) bool {
		heats := make([]Heat, len(counts))
		for i, c := range counts {
			heats[i] = Heat{Row: (i * 37) % 1009, Count: int64(c % 5)}
		}
		want := slices.Clone(heats)
		slices.SortFunc(want, hotter)
		k := min(int(n), len(heats))
		hottest(heats, int(n))
		return slices.Equal(heats[:k], want[:k])
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
