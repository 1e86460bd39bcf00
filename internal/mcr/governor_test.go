package mcr

import (
	"math"
	"testing"
)

func newGov(t *testing.T, startK, downgradeAfter int) *Governor {
	t.Helper()
	g, err := NewGovernor(GovernorConfig{DowngradeAfter: downgradeAfter}, startK)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// violations returns the count accumulated at the current rung.
func violations(g *Governor) int {
	_, n := g.ExportState()
	return n
}

func TestGovernorConfigValidate(t *testing.T) {
	for _, n := range []int{0, 1, math.MaxInt} {
		if err := (GovernorConfig{DowngradeAfter: n}).Validate(); err != nil {
			t.Errorf("DowngradeAfter %d: %v", n, err)
		}
	}
	for _, n := range []int{-1, math.MinInt} {
		if err := (GovernorConfig{DowngradeAfter: n}).Validate(); err == nil {
			t.Errorf("DowngradeAfter %d should be rejected", n)
		}
		if _, err := NewGovernor(GovernorConfig{DowngradeAfter: n}, 4); err == nil {
			t.Errorf("NewGovernor accepted DowngradeAfter %d", n)
		}
	}
}

func TestGovernorConfigDowngradeAfterValidate(t *testing.T) {
	cfg := GovernorConfig{DowngradeAfter: -1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative DowngradeAfter must be rejected")
	}
	cfg.DowngradeAfter = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("0 (disabled) must validate: %v", err)
	}
}

func TestNewGovernorRungs(t *testing.T) {
	if g := newGov(t, 4, 1); g.Mode().K != 4 {
		t.Fatal("4x rung wrong")
	}
	if g := newGov(t, 1, 1); g.Mode().K != 1 || g.Mode().Enabled() {
		t.Fatal("off rung wrong")
	}
	if _, err := NewGovernor(GovernorConfig{DowngradeAfter: 1}, 8); err == nil {
		t.Fatal("unknown rung must be rejected")
	}
}

// TestGovernorRelaxLadder: each relax steps one rung toward capacity,
// 4x -> 2x -> off, and the ladder ends there.
func TestGovernorRelaxLadder(t *testing.T) {
	g := newGov(t, 4, 1)
	for _, want := range []int{2, 1} {
		if !g.RecordViolations(1) {
			t.Fatalf("K=%d: violation did not ask for a relax", g.Mode().K)
		}
		m, err := g.Relax() // relaxation never needs migration
		if err != nil {
			t.Fatal(err)
		}
		if m.K != want || g.Mode() != m {
			t.Fatalf("after relax K = %d, want %d", m.K, want)
		}
	}
	// At the bottom, no relax even under violations.
	if g.RecordViolations(100) {
		t.Fatal("cannot relax past full capacity")
	}
	if _, err := g.Relax(); err == nil {
		t.Fatal("relaxing past the ladder must error")
	}
}

// TestGovernorViolationTriggeredRelax: accumulating DowngradeAfter
// violations at a rung asks for a relax; committing it resets the counter.
func TestGovernorViolationTriggeredRelax(t *testing.T) {
	g := newGov(t, 4, 3)
	if g.RecordViolations(1) {
		t.Fatal("1/3 violations asked for a relax")
	}
	if g.RecordViolations(1) {
		t.Fatal("2/3 violations asked for a relax")
	}
	if !g.RecordViolations(1) {
		t.Fatal("3/3 violations did not ask for a relax")
	}
	m, err := g.Relax()
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 2 {
		t.Fatalf("after relax K = %d, want 2", m.K)
	}
	if violations(g) != 0 {
		t.Fatalf("counter %d after rung change, want 0", violations(g))
	}
}

// TestGovernorSustainedViolationsWalkLadderToOff: repeated downgrades
// under sustained violations end at the off mode, where further
// violations no longer ask for anything.
func TestGovernorSustainedViolationsWalkLadderToOff(t *testing.T) {
	g := newGov(t, 4, 2)
	downgrades := 0
	for i := 0; i < 20; i++ {
		if !g.RecordViolations(1) {
			continue
		}
		if _, err := g.Relax(); err != nil {
			t.Fatal(err)
		}
		downgrades++
	}
	if downgrades != 2 {
		t.Fatalf("downgrades = %d, want 2 (4x -> 2x -> off)", downgrades)
	}
	if g.Mode().Enabled() {
		t.Fatalf("ladder should end at off, got %v", g.Mode())
	}
	// At the bottom the counter still accumulates but never fires.
	if g.RecordViolations(100) {
		t.Fatal("bottom rung asked for a relax")
	}
}

// TestGovernorFailedTightenKeepsCounter: a refused transition rolls
// nothing forward — the rung and the violation counter are unchanged, so
// the reliability path is not reset by a failed mode change. The governor
// no longer tightens (Table 2 makes that orphan rows; see
// TestRelaxRejectsTightening), so the transition it can refuse is a relax
// past the bottom rung; a committed relax does reset the counter.
func TestGovernorFailedTightenKeepsCounter(t *testing.T) {
	g := newGov(t, 2, 3)
	g.RecordViolations(2)
	if _, err := g.Relax(); err != nil {
		t.Fatal(err)
	}
	if violations(g) != 0 {
		t.Fatalf("committed relax kept the counter at %d", violations(g))
	}
	g.RecordViolations(2)
	before := g.Mode()
	if _, err := g.Relax(); err == nil {
		t.Fatal("relaxing past the bottom must be refused")
	}
	if g.Mode() != before {
		t.Fatalf("refused relax moved the rung: %v -> %v", before, g.Mode())
	}
	if violations(g) != 2 {
		t.Fatalf("refused relax reset the counter to %d", violations(g))
	}
}

// TestGovernorBatchedViolationsCrossThreshold: one batch can jump the
// threshold in a single call.
func TestGovernorBatchedViolationsCrossThreshold(t *testing.T) {
	g := newGov(t, 4, 5)
	if !g.RecordViolations(17) {
		t.Fatal("batch of 17 over threshold 5 did not ask for a relax")
	}
}

// TestGovernorViolationsDisabledPath: DowngradeAfter 0 never relaxes and
// never counts.
func TestGovernorViolationsDisabledPath(t *testing.T) {
	g := newGov(t, 4, 0)
	for i := 0; i < 50; i++ {
		if g.RecordViolations(10) {
			t.Fatal("disabled path asked for a relax")
		}
	}
	if violations(g) != 0 {
		t.Fatalf("disabled path counted %d violations", violations(g))
	}
	g = newGov(t, 4, 1)
	if g.RecordViolations(0) || g.RecordViolations(-3) || violations(g) != 0 {
		t.Fatal("non-positive n must be a no-op")
	}
}

// TestGovernorModeChangeIsMRSCompatible: every rung is a valid MRS target
// and the relax direction matches the Table 2 mapper's safety rule.
func TestGovernorModeChangeIsMRSCompatible(t *testing.T) {
	g := newGov(t, 4, 1)
	reg := NewModeRegister()
	mapper, err := NewCapacityMapper(4, 15)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if err := reg.Set(g.Mode()); err != nil {
			t.Fatalf("rung %v not MRS-encodable: %v", g.Mode(), err)
		}
		if !g.RecordViolations(1) {
			break
		}
		m, err := g.Relax()
		if err != nil {
			t.Fatal(err)
		}
		mapper, err = mapper.RelaxTo(m.K)
		if err != nil {
			t.Fatalf("mapper refused a governor relax: %v", err)
		}
	}
}
