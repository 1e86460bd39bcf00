package fault

import (
	"math"
	"testing"
)

// FuzzFaultSchedule fuzzes the invariants of the injected fault schedule,
// the weak rows and their retention tails: whatever the seed and
// (clamped-valid) configuration, weak rows are strictly ascending inside
// [0, Rows), each row's tail lies in [TailMinFrac, TailMaxFrac],
// multipliers are finite and >= 1, and a disabled configuration is a
// byte-identical no-op.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(int64(1), 0.001, 0.002, 0.02, uint16(2048), uint8(4))
	f.Add(int64(42), 0.5, 0.01, 0.5, uint16(64), uint8(1))
	f.Add(int64(-7), 0.0, 0.1, 0.1, uint16(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, weakFrac, tailMin, tailMax float64, rows16 uint16, k8 uint8) {
		// Clamp raw fuzz input into a valid configuration; the invariants
		// below must hold for every valid configuration.
		clamp01 := func(v float64) float64 {
			if math.IsNaN(v) || v < 0 {
				return 0
			}
			if v > 1 {
				return 1
			}
			return v
		}
		cfg := Config{Seed: seed, WeakFraction: clamp01(weakFrac)}
		tailMin = clamp01(tailMin)
		tailMax = clamp01(tailMax)
		if tailMin <= 0 || tailMin >= 1 {
			tailMin = 0.01
		}
		if tailMax < tailMin || tailMax >= 1 {
			tailMax = tailMin
		}
		cfg.TailMinFrac, cfg.TailMaxFrac = tailMin, tailMax
		if err := cfg.Validate(); err != nil {
			t.Fatalf("clamped config still invalid: %v", err)
		}

		rows := int(rows16)%4096 + 1
		k := int(k8)%4 + 1

		m, err := NewModel(cfg, rows)
		if err != nil {
			t.Fatalf("NewModel: %v", err)
		}
		prev := -1
		for _, row := range m.WeakRows() {
			if row <= prev || row >= rows {
				t.Fatalf("weak row %d after %d, outside [0,%d) or out of order", row, prev, rows)
			}
			prev = row
			if s := m.TailScale(row); s < cfg.TailMinFrac || s > cfg.TailMaxFrac {
				t.Fatalf("row %d tail scale %g outside [%g,%g]", row, s, cfg.TailMinFrac, cfg.TailMaxFrac)
			}
		}

		// Multipliers stay finite and never flatter the leak.
		for _, row := range []int{0, rows / 2, rows - 1} {
			mult := m.LeakMultiplier(row, k, 0, 1)
			if math.IsNaN(mult) || math.IsInf(mult, 0) || mult < 1 {
				t.Fatalf("LeakMultiplier(row %d) = %g", row, mult)
			}
		}

		// Disabled injection is a byte-identical no-op regardless of seed.
		off, err := NewModel(Config{Seed: seed}, rows)
		if err != nil {
			t.Fatalf("NewModel(disabled): %v", err)
		}
		if got := off.WeakRows(); got != nil {
			t.Fatalf("disabled model has %d weak rows", len(got))
		}
		for _, row := range []int{0, rows - 1} {
			if off.LeakMultiplier(row, k, 0, 1) != 1 {
				t.Fatal("disabled LeakMultiplier != 1")
			}
		}
	})
}
