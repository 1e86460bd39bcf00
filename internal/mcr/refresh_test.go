package mcr

import "testing"

// TestWiringFig8 pins the paper's Fig 8 numbers: for a 3-bit counter over a
// 64 ms window the K-to-K wiring yields 56 ms (2x) / 40 ms (4x) worst-case
// intervals, the K-to-N-1-K wiring 32 ms / 16 ms.
func TestWiringFig8(t *testing.T) {
	cases := []struct {
		w    Wiring
		k    int
		want float64
	}{
		{KtoK, 1, 64}, {KtoN1K, 1, 64},
		{KtoK, 2, 56}, {KtoN1K, 2, 32},
		{KtoK, 4, 40}, {KtoN1K, 4, 16},
	}
	for _, c := range cases {
		if got := MaxRefreshIntervalMs(c.w, 3, c.k, 64); got != c.want {
			t.Errorf("%v K=%d: interval = %g ms, want %g", c.w, c.k, got, c.want)
		}
	}
}

// TestWiring13Bit checks the real REF-counter widths: K-to-N-1-K stays
// exactly uniform (64/K) while K-to-K barely improves on 64 ms.
func TestWiring13Bit(t *testing.T) {
	if got := MaxRefreshIntervalMs(KtoN1K, 13, 2, 64); got != 32 {
		t.Errorf("K-to-N-1-K 2x at 13 bits = %g, want 32", got)
	}
	if got := MaxRefreshIntervalMs(KtoN1K, 13, 4, 64); got != 16 {
		t.Errorf("K-to-N-1-K 4x at 13 bits = %g, want 16", got)
	}
	if got := MaxRefreshIntervalMs(KtoK, 13, 4, 64); got < 63 {
		t.Errorf("K-to-K 4x at 13 bits = %g, should stay near 64", got)
	}
}

func TestRefreshRowAddressBitReversal(t *testing.T) {
	// Fig 8(c): counter 1 under K-to-N-1-K with 3 bits targets row 100b=4.
	if got := RefreshRowAddress(KtoN1K, 1, 3); got != 4 {
		t.Fatalf("rev3(1) = %d, want 4", got)
	}
	if got := RefreshRowAddress(KtoK, 5, 3); got != 5 {
		t.Fatalf("K-to-K must be the identity, got %d", got)
	}
	// Out-of-range counters wrap to n bits.
	if got := RefreshRowAddress(KtoK, 9, 3); got != 1 {
		t.Fatalf("counter must be masked to n bits, got %d", got)
	}
}

// Property: RefreshRowAddress is a bijection on [0, 2^n) for both wirings.
func TestRefreshRowAddressBijection(t *testing.T) {
	for _, w := range []Wiring{KtoK, KtoN1K} {
		seen := make(map[int]bool)
		for c := 0; c < 1<<13; c++ {
			r := RefreshRowAddress(w, c, 13)
			if seen[r] {
				t.Fatalf("%v: duplicate row %d", w, r)
			}
			seen[r] = true
		}
	}
}

func TestWiringString(t *testing.T) {
	if KtoK.String() != "K-to-K" || KtoN1K.String() != "K-to-N-1-K" {
		t.Fatal("wiring names wrong")
	}
	if Wiring(9).String() == "" {
		t.Fatal("unknown wiring needs a diagnostic")
	}
}

// newSched plans a simple mode's refreshes: the single-band layout of the
// mode, as the device builds it.
func newSched(t *testing.T, mode Mode, wiring Wiring, rows int) *LayoutScheduler {
	t.Helper()
	g, err := NewGenerator(LayoutOf(mode), 512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLayoutScheduler(g, wiring, rows)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewSchedulerRejects: the planner of a simple mode's single-band
// layout rejects the same constructor arguments as any layout's.
func TestNewSchedulerRejects(t *testing.T) {
	g, err := NewGenerator(LayoutOf(mustMode(2, 2, 1)), 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLayoutScheduler(nil, KtoN1K, 32768); err == nil {
		t.Fatal("nil generator must be rejected")
	}
	if _, err := NewLayoutScheduler(g, KtoN1K, 1000); err == nil {
		t.Fatal("non-power-of-two rows must be rejected")
	}
	if _, err := NewLayoutScheduler(g, KtoN1K, 4096); err == nil {
		t.Fatal("fewer rows than REF commands must be rejected")
	}
}

// window counts one retention window of plans per band K: the REF
// commands landing in the band, and the ones Refresh-Skipping elides.
func window(s *LayoutScheduler) (perK, skipped map[int]int) {
	perK, skipped = map[int]int{}, map[int]int{}
	for c := 0; c < RefsPerWindow; c++ {
		op := s.Plan(c)
		perK[op.K]++
		if op.Skipped {
			skipped[op.K]++
		}
	}
	return perK, skipped
}

// TestWindowCoversEveryRow: over one window the closed-form batches — REF
// c restores Plan(c).Row + i*8192 for i below the batch size — touch every
// row of the bank exactly once (clones aside: activating a batch row
// refreshes its clones too).
func TestWindowCoversEveryRow(t *testing.T) {
	for _, w := range []Wiring{KtoK, KtoN1K} {
		s := newSched(t, Off(), w, 32768)
		seen := make([]bool, 32768)
		for c := 0; c < RefsPerWindow; c++ {
			base := s.Plan(c).Row
			for i := 0; i < 32768/RefsPerWindow; i++ {
				r := base + i*RefsPerWindow
				if seen[r] {
					t.Fatalf("%v: row %d refreshed twice", w, r)
				}
				seen[r] = true
			}
		}
		for r, ok := range seen {
			if !ok {
				t.Fatalf("%v: row %d never refreshed", w, r)
			}
		}
	}
}

// TestRefreshSkipFig9 pins the Fig 9 schedules on a 100%reg device: 4/4x
// skips nothing, 2/4x skips every other MCR refresh, 1/4x keeps one in four.
func TestRefreshSkipFig9(t *testing.T) {
	cases := []struct {
		m        int
		skipFrac float64
	}{
		{4, 0}, {2, 0.5}, {1, 0.75},
	}
	for _, c := range cases {
		perK, skipped := window(newSched(t, mustMode(4, c.m, 1), KtoN1K, 32768))
		if perK[4] != RefsPerWindow {
			t.Fatalf("100%%reg: every REF is an MCR REF, got %v", perK)
		}
		if got := float64(skipped[4]) / RefsPerWindow; got != c.skipFrac {
			t.Errorf("mode %d/4x: skip fraction %g, want %g", c.m, got, c.skipFrac)
		}
	}
}

// TestSkipSpacingUniform: the kept refreshes of one MCR are uniformly
// spaced under K-to-N-1-K wiring — that is exactly what justifies the 64/M
// leakage budget.
func TestSkipSpacingUniform(t *testing.T) {
	s := newSched(t, mustMode(4, 2, 1), KtoN1K, 32768)
	// Track the REF counters that actually refresh the MCR of row 0.
	var kept []int
	for c := 0; c < RefsPerWindow; c++ {
		op := s.Plan(c)
		if op.Skipped {
			continue
		}
		for r := op.Row; r < 32768; r += RefsPerWindow {
			if r>>2 == 0 { // MCR base 0
				kept = append(kept, c)
			}
		}
	}
	if len(kept) != 2 {
		t.Fatalf("mode 2/4x must keep 2 refreshes per window for one MCR, got %d", len(kept))
	}
	gap := kept[1] - kept[0]
	wrap := RefsPerWindow - kept[1] + kept[0]
	if gap != wrap {
		t.Fatalf("kept refreshes not uniform: gaps %d and %d", gap, wrap)
	}
}

// TestPartialRegionSkipping: only MCR-region REFs are ever skipped.
func TestPartialRegionSkipping(t *testing.T) {
	s := newSched(t, mustMode(4, 1, 0.5), KtoN1K, 32768)
	perK, skipped := window(s)
	if perK[4] != RefsPerWindow/2 {
		t.Fatalf("50%%reg: MCR REFs = %d, want %d", perK[4], RefsPerWindow/2)
	}
	for c := 0; c < RefsPerWindow; c++ {
		op := s.Plan(c)
		if op.Skipped && !op.InMCR {
			t.Fatalf("plan %d skipped a normal-row REF", c)
		}
	}
	// 1/4x keeps 1 in 4 MCR refreshes: skipped = 3/4 of the MCR half.
	if want := RefsPerWindow / 2 * 3 / 4; skipped[4] != want || skipped[1] != 0 {
		t.Fatalf("skipped = %v, want %d in the 4x band and none elsewhere", skipped, want)
	}
}

// TestPlanHomogeneous: every row of one REF shares the band the plan
// reports (what makes per-command tRFC classes sound). Every counter of
// the window is checked, not a random sample, which can miss the few
// counters a misplaced band breaks.
func TestPlanHomogeneous(t *testing.T) {
	g, err := NewGenerator(LayoutOf(mustMode(4, 4, 0.25)), 512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLayoutScheduler(g, KtoN1K, 131072)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < RefsPerWindow; c++ {
		op := s.Plan(c)
		for r := op.Row; r < 131072; r += RefsPerWindow {
			if g.InMCR(r) != op.InMCR || g.KAt(r) != op.K {
				t.Fatalf("REF %d (%+v) covers row %d, in MCR %v with K %d", c, op, r, g.InMCR(r), g.KAt(r))
			}
		}
	}
}

// TestPlanCounterWraps: Plan accepts any counter value.
func TestPlanCounterWraps(t *testing.T) {
	s := newSched(t, mustMode(2, 2, 1), KtoN1K, 32768)
	if a, b := s.Plan(5), s.Plan(5+RefsPerWindow); a != b {
		t.Fatalf("Plan must be periodic in the window length: %+v vs %+v", a, b)
	}
}

// TestKtoKSkipCount: under the ablation wiring a 1/2x MCR still skips
// one refresh in two.
func TestKtoKSkipCount(t *testing.T) {
	_, skipped := window(newSched(t, mustMode(2, 1, 1), KtoK, 32768))
	if got := float64(skipped[2]) / RefsPerWindow; got != 0.5 {
		t.Fatalf("1/2x skip fraction = %g, want 0.5", got)
	}
}
