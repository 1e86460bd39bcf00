package integrity

import (
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// genCloner answers GangK from an MCR generator.
type genCloner struct{ *mcr.Generator }

// recordActivate notes an activation of a row (and its clones) completing
// with the given restore level at time t. The level is what the device's
// tRAS class guarantees: 1.0 for a full restore, less under
// Early-Precharge. Activation first *checks* the cells still held data.
func recordActivate(c *Checker, bank, row int, restoreLevel, tMs float64) {
	c.CheckActivate(bank, row, tMs)
	c.RecordRestore(bank, row, restoreLevel, tMs)
}

func (g genCloner) GangK(row int) int { return g.KAt(row) }

func newChecker(t *testing.T, cfg Config, mode mcr.Mode) *Checker {
	t.Helper()
	gen, err := mcr.NewGenerator(mcr.LayoutOf(mode), 512)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, genCloner{gen})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{{RetentionMs: 0}, {RetentionMs: -64}, {RetentionMs: math.NaN()}, {RetentionMs: math.Inf(1)}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v should be rejected", bad)
		}
	}
}

func TestNewRejectsNilGenerator(t *testing.T) {
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("nil generator must be rejected")
	}
	if _, err := New(DefaultConfig(), (*dram.Device)(nil)); err == nil {
		t.Fatal("typed-nil device must be rejected")
	}
}

// TestFullRestoreSurvivesOneWindow: a fully restored cell is safe for
// exactly one retention window and no longer.
func TestFullRestoreSurvivesOneWindow(t *testing.T) {
	c := newChecker(t, DefaultConfig(), mcr.Off())
	recordActivate(c, 0, 100, 1.0, 0)
	recordActivate(c, 0, 100, 1.0, 64) // exactly at the window edge: fine
	if c.ViolationCount() != 0 {
		t.Fatalf("refresh at the window edge must be safe: %v", c.Violations())
	}
	recordActivate(c, 0, 100, 1.0, 129) // 65 ms gap: violation
	if c.ViolationCount() == 0 {
		t.Fatal("a 65 ms refresh gap must be flagged")
	}
	v := c.Violations()[0]
	if v.Row != 100 || v.SinceMs != 65 {
		t.Fatalf("violation misreported: %+v", v)
	}
}

// TestEarlyPrechargeSafeWithMatchingInterval: the paper's central claim. A
// cell restored to the 2x level (reclaiming half the leak budget) survives
// a 32 ms interval but not a 64 ms one.
func TestEarlyPrechargeSafeWithMatchingInterval(t *testing.T) {
	cfg := DefaultConfig()
	level2x := RestoreLevelFor(2) // 0.9 for the 0.2/64ms assumption
	if level2x != 0.9 {
		t.Fatalf("2x restore level = %g, want 0.9 (Sec. 3.3 example)", level2x)
	}

	safe := newChecker(t, cfg, mcrtest.Mode(2, 2, 1))
	for tm := 0.0; tm <= 256; tm += 32 {
		recordActivate(safe, 0, 256, level2x, tm)
	}
	if safe.ViolationCount() != 0 {
		t.Fatalf("2x restore at 32 ms cadence must be safe: %v", safe.Violations())
	}

	unsafe := newChecker(t, cfg, mcrtest.Mode(2, 2, 1))
	recordActivate(unsafe, 0, 256, level2x, 0)
	recordActivate(unsafe, 0, 256, level2x, 64) // skipped one refresh
	if unsafe.ViolationCount() == 0 {
		t.Fatal("2x restore over a 64 ms gap must be flagged")
	}
}

// TestRestoreLevelForMatchesPaperExample: Sec. 3.3's worked numbers.
func TestRestoreLevelForMatchesPaperExample(t *testing.T) {
	cases := map[int]float64{1: 1.0, 2: 0.9, 4: 0.85}
	for m, want := range cases {
		if got := RestoreLevelFor(m); got != want {
			t.Errorf("RestoreLevelFor(%d) = %g, want %g", m, got, want)
		}
	}
	if RestoreLevelFor(0) != 1.0 {
		t.Error("m below 1 must clamp to a full restore")
	}
}

// TestClonesShareEvents: refreshing any clone of an MCR recharges all of
// them — the mechanism behind the K-times refresh rate.
func TestClonesShareEvents(t *testing.T) {
	c := newChecker(t, DefaultConfig(), mcrtest.Mode(4, 4, 1))
	recordActivate(c, 0, 257, 1.0, 0) // touches rows 256..259
	c.Sweep(60)
	if c.ViolationCount() != 0 {
		t.Fatalf("all clones were recharged at t=0: %v", c.Violations())
	}
	c2 := newChecker(t, DefaultConfig(), mcrtest.Mode(4, 4, 0.25))
	recordActivate(c2, 0, 10, 1.0, 0) // normal row: only row 10 recharged
	c2.Sweep(50)                      // in-window: clean
	if c2.ViolationCount() != 0 {
		t.Fatalf("in-window sweep must be clean: %v", c2.Violations())
	}
	c2.Sweep(100) // row 10 decays past the floor; row 11 has no history
	if c2.ViolationCount() == 0 {
		t.Fatal("row 10 must be flagged after the window")
	}
	for _, v := range c2.Violations() {
		if v.Row != 10 {
			t.Fatalf("only the written row can lose data, got row %d", v.Row)
		}
	}
}

// TestScaledRetention: the checker honours non-default windows (the
// high-temperature 32 ms range).
func TestScaledRetention(t *testing.T) {
	cfg := Config{RetentionMs: 32}
	c := newChecker(t, cfg, mcr.Off())
	recordActivate(c, 0, 1, 1.0, 0)
	recordActivate(c, 0, 1, 1.0, 33)
	if c.ViolationCount() == 0 {
		t.Fatal("33 ms gap must violate a 32 ms window")
	}
}

// TestSweepIdempotentWhenSafe: sweeping inside the window never flags.
func TestSweepIdempotentWhenSafe(t *testing.T) {
	c := newChecker(t, DefaultConfig(), mcr.Off())
	for row := 0; row < 64; row++ {
		recordActivate(c, 0, row, 1.0, float64(row)*0.1)
	}
	c.Sweep(10)
	c.Sweep(20)
	if c.ViolationCount() != 0 {
		t.Fatalf("in-window sweeps must be clean: %v", c.Violations())
	}
}
