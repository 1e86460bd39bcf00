package integrity

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// TestViolationModeContext: violations carry the K and mode string the
// context providers supply, and the formatted output includes them.
func TestViolationModeContext(t *testing.T) {
	c := newChecker(t, DefaultConfig(), mcrtest.Mode(4, 4, 1))
	c.SetModeContext(
		func() string { return "mode [4/4x/100%reg]" },
		func(row int) int { return 4 },
	)
	recordActivate(c, 0, 8, 1.0, 0)
	c.CheckActivate(0, 8, 200) // far past the 64 ms window
	if c.ViolationCount() == 0 {
		t.Fatal("expected a violation")
	}
	v := c.Violations()[0]
	if v.K != 4 || v.Mode != "mode [4/4x/100%reg]" || v.Kind != KindRetention {
		t.Fatalf("violation context missing: %+v", v)
	}
	msg := v.Error()
	if !strings.Contains(msg, "K=4") || !strings.Contains(msg, "mode [4/4x/100%reg]") {
		t.Fatalf("formatted violation lacks mode context: %s", msg)
	}
}

// TestViolationDefaultContext: without providers, violations report K=1
// and a placeholder mode, and formatting still works.
func TestViolationDefaultContext(t *testing.T) {
	c := newChecker(t, DefaultConfig(), mcr.Off())
	recordActivate(c, 0, 8, 1.0, 0)
	c.CheckActivate(0, 8, 200)
	if c.ViolationCount() == 0 {
		t.Fatal("expected a violation")
	}
	v := c.Violations()[0]
	if v.K != 1 || v.Mode != "" {
		t.Fatalf("default context wrong: %+v", v)
	}
	if !strings.Contains(v.Error(), "mode [?]") {
		t.Fatalf("placeholder mode missing: %s", v.Error())
	}
}

// TestFaultModelWeakRowsDetected is the tentpole's core detection claim
// at the checker level: at mode [4/4x], every injected weak row violates
// retention on a revisit gap that is safe for nominal rows.
func TestFaultModelWeakRowsDetected(t *testing.T) {
	cfg := DefaultConfig() // 64 ms window, leak 0.2/window
	mode := mcrtest.Mode(4, 4, 1)
	c := newChecker(t, cfg, mode)
	c.SetModeContext(func() string { return mode.String() }, func(row int) int { return 4 })

	fcfg := fault.Config{Seed: 9, WeakFraction: 0.05, TailMinFrac: 0.002, TailMaxFrac: 0.02}
	fm, err := fault.NewModel(fcfg, 512)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaults(fm)

	var weak []int
	for row := 0; row < 512; row++ {
		if fm.IsWeak(row) {
			weak = append(weak, row)
		}
	}
	if len(weak) == 0 {
		t.Fatal("fixture needs weak rows")
	}

	// Early-Precharge restore for m=4 decays to the floor after exactly
	// window/4 = 16 ms on a nominal cell; revisit after 15 ms. A weak
	// cell's leak is >= K/TailMaxFrac = 200x nominal: it is long dead.
	restore := RestoreLevelFor(4)
	for row := 0; row < 512; row++ {
		c.RecordRestore(0, row, restore, 0)
	}
	for row := 0; row < 512; row++ {
		c.CheckActivate(0, row, 15)
	}

	flagged := map[int]bool{}
	for _, v := range c.Violations() {
		flagged[v.Row] = true
		if v.K != 4 || v.Mode != mode.String() {
			t.Fatalf("violation lacks MCR context: %+v", v)
		}
	}
	for _, row := range weak {
		if !flagged[row] {
			t.Errorf("injected weak row %d not reported", row)
		}
	}
	// And no false positives: nominal rows survive the 15 ms gap.
	for row := range flagged {
		if !fm.IsWeak(row) {
			t.Errorf("nominal row %d falsely flagged", row)
		}
	}
}

// TestViolationCount tracks len(Violations) cheaply.
func TestViolationCount(t *testing.T) {
	c := newChecker(t, DefaultConfig(), mcr.Off())
	if c.ViolationCount() != 0 {
		t.Fatal("fresh checker must count 0")
	}
	recordActivate(c, 0, 1, 1.0, 0)
	c.CheckActivate(0, 1, 200)
	if c.ViolationCount() != len(c.Violations()) || c.ViolationCount() == 0 {
		t.Fatalf("count %d disagrees with Violations %d", c.ViolationCount(), len(c.Violations()))
	}
}

// TestViolationKindString names the kinds.
func TestViolationKindString(t *testing.T) {
	for kind, want := range map[ViolationKind]string{
		KindRetention:     "retention",
		ViolationKind(42): "ViolationKind(42)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("ViolationKind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}
