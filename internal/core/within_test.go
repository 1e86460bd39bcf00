package core

import (
	"math"
	"testing"
)

// testEnum names every value as a valid one, as some enums' String does.
type testEnum int

func (testEnum) String() string { return "valid" }

// TestWithin: each kind of range admits its bounds as its brackets say,
// NaN and ±Inf fail even the widest range, and the error names the field,
// the range and the value.
func TestWithin(t *testing.T) {
	for _, c := range []struct {
		v    float64
		ends Ends
		want string // "" when v is in the range
	}{
		{0, Closed, ""},
		{1, Closed, ""},
		{0, OpenLo, "x: F must be in (0, 1], got 0"},
		{1, OpenLo, ""},
		{0, OpenHi, ""},
		{1, OpenHi, "x: F must be in [0, 1), got 1"},
		{0.5, Open, ""},
		{1, Open, "x: F must be in (0, 1), got 1"},
		{-1, Closed, "x: F must be in [0, 1], got -1"},
		{math.NaN(), Closed, "x: F must be in [0, 1], got NaN"},
		{math.Inf(1), OpenLo, "x: F must be in (0, 1], got +Inf"},
	} {
		got := ""
		if err := Within("x: F", c.v, c.ends, 0, 1); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("Within(%v, %d) = %q, want %q", c.v, c.ends, got, c.want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if Within("x: F", v, Closed, -math.MaxFloat64, math.MaxFloat64) == nil {
			t.Errorf("%v passed the widest range", v)
		}
	}
	if err := Within("x: N", 1<<40, Closed, 1, 64); err == nil || err.Error() != "x: N must be in [1, 64], got 1099511627776" {
		t.Errorf("int range: %v", err)
	}
	// An enum prints as its number: its String may name a valid value.
	if err := Within("x: E", testEnum(-1), Closed, 0, 2); err == nil || err.Error() != "x: E must be in [0, 2], got -1" {
		t.Errorf("enum range: %v", err)
	}
	if Within("x: N", math.MaxInt, Closed, 0, math.MaxInt) != nil {
		t.Error("the largest int failed the whole non-negative range")
	}
}

// TestWithinDoesNotAllocate: NewSim validates its whole configuration, so
// a check that passes must cost no allocation.
func TestWithinDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		_ = Within("x: F", 0.5, Open, 0.0, 1.0)
		_ = Within("x: N", 3, Closed, 1, 64)
		_ = Within("x: E", testEnum(1), Closed, 0, 2)
	}); n != 0 {
		t.Errorf("a passing check allocates %v objects", n)
	}
}
