package fault

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/timing"
)

func TestZeroValueDisabled(t *testing.T) {
	var cfg Config
	if cfg.Enabled() {
		t.Fatal("zero-value Config must be disabled")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero-value Config must validate: %v", err)
	}
	m, err := NewModel(cfg, 1024)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	for _, row := range []int{0, 1, 511, 1023} {
		if m.IsWeak(row) {
			t.Fatalf("row %d flagged under disabled config", row)
		}
		if got := m.LeakMultiplier(row, 4, 0, 10); got != 1 {
			t.Fatalf("LeakMultiplier(row %d) = %g, want exactly 1", row, got)
		}
	}
	if rows := m.WeakRows(); rows != nil {
		t.Fatalf("disabled WeakRows returned %d rows", len(rows))
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(), true},
		{"zero", Config{}, true},
		{"weak-negative", Config{WeakFraction: -0.1, TailMinFrac: 0.01, TailMaxFrac: 0.02}, false},
		{"weak-above-one", Config{WeakFraction: 1.5, TailMinFrac: 0.01, TailMaxFrac: 0.02}, false},
		{"tail-min-zero", Config{WeakFraction: 0.1, TailMinFrac: 0, TailMaxFrac: 0.02}, false},
		{"tail-max-below-min", Config{WeakFraction: 0.1, TailMinFrac: 0.05, TailMaxFrac: 0.02}, false},
		{"tail-max-one", Config{WeakFraction: 0.1, TailMinFrac: 0.05, TailMaxFrac: 1}, false},
		{"tails-unchecked-when-disabled", Config{TailMinFrac: -1}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
	if _, err := NewModel(Config{}, 0); err == nil {
		t.Error("NewModel with 0 rows: expected error")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WeakFraction = 0.01
	a, err := NewModel(cfg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModel(cfg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.WeakRows(), b.WeakRows()) {
		t.Fatal("two models from the same config disagree on WeakRows")
	}
	for _, row := range a.WeakRows() {
		if a.TailScale(row) != b.TailScale(row) {
			t.Fatalf("row %d: two models from the same config disagree on the tail", row)
		}
	}

	// A different seed must move the population.
	cfg2 := cfg
	cfg2.Seed = 99
	c, err := NewModel(cfg2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.WeakRows(), c.WeakRows()) {
		t.Fatal("different seeds sampled identical weak populations")
	}
}

func TestWeakPopulationFraction(t *testing.T) {
	cfg := Config{Seed: 7, WeakFraction: 0.01, TailMinFrac: 0.002, TailMaxFrac: 0.02}
	m, err := NewModel(cfg, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	n := len(m.WeakRows())
	// 1% of 100k with hash sampling: expect ~1000, allow generous slack.
	if n < 700 || n > 1300 {
		t.Fatalf("weak population %d out of expected band around 1000", n)
	}
	for _, row := range m.WeakRows() {
		s := m.TailScale(row)
		if s < cfg.TailMinFrac || s > cfg.TailMaxFrac {
			t.Fatalf("row %d tail scale %g outside [%g,%g]", row, s, cfg.TailMinFrac, cfg.TailMaxFrac)
		}
	}
}

// TestScheduleShape: the fault schedule is the weak rows, strictly
// ascending inside [0, Rows), each with a tail inside its bounds.
func TestScheduleShape(t *testing.T) {
	cfg := Config{Seed: 11, WeakFraction: 0.05, TailMinFrac: 0.01, TailMaxFrac: 0.05}
	m, err := NewModel(cfg, 2048)
	if err != nil {
		t.Fatal(err)
	}
	rows := m.WeakRows()
	if len(rows) == 0 {
		t.Fatal("expected weak rows")
	}
	for i, row := range rows {
		if row < 0 || row >= 2048 || (i > 0 && row <= rows[i-1]) {
			t.Fatalf("weak row %d at %d: out of range or not ascending", row, i)
		}
		if s := m.TailScale(row); s < cfg.TailMinFrac || s > cfg.TailMaxFrac {
			t.Fatalf("row %d tail scale %g outside [%g,%g]", row, s, cfg.TailMinFrac, cfg.TailMaxFrac)
		}
	}
}

func TestLeakMultiplierWeak(t *testing.T) {
	cfg := Config{Seed: 1, WeakFraction: 1, TailMinFrac: 0.01, TailMaxFrac: 0.01}
	m, err := NewModel(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Every row weak with scale exactly 0.01: multiplier = K/0.01.
	for _, k := range []int{1, 2, 4} {
		want := float64(k) / 0.01
		got := m.LeakMultiplier(3, k, 0, 5)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("K=%d: LeakMultiplier = %g, want %g", k, got, want)
		}
	}
	// Tail retention window shrinks with K.
	if r1, r4 := m.TailRetentionMs(3, 1), m.TailRetentionMs(3, 4); math.Abs(r1/r4-4) > 1e-9 {
		t.Fatalf("TailRetentionMs K scaling: %g vs %g", r1, r4)
	}
	if want := 0.01 * timing.RetentionWindowMs; math.Abs(m.TailRetentionMs(3, 1)-want) > 1e-9 {
		t.Fatalf("TailRetentionMs = %g, want %g", m.TailRetentionMs(3, 1), want)
	}
}
