package sim

import (
	"testing"

	"repro/internal/mcr"
)

// TestSteadyStateZeroAllocPerCycle pins, at runtime, the hot-path hygiene
// claim the mcrlint hotalloc check proves statically: with metrics and
// tracing disabled, the steady-state cycle loop of a full run performs no
// heap allocation. Whole-run allocation counts include setup, warmup
// growth (queues, completion heap) and the result epilogue, so the test
// measures two runs differing only in instruction budget and requires the
// allocation delta per extra simulated cycle to vanish.
func TestSteadyStateZeroAllocPerCycle(t *testing.T) {
	measure := func(insts int64) (allocs float64, cycles int64) {
		cfg := quickCfg("tigr", mcr.Off())
		cfg.InstsPerCore = insts
		var mem int64
		allocs = testing.AllocsPerRun(3, func() {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mem = res.MemCycles
		})
		return allocs, mem
	}
	aShort, cShort := measure(20_000)
	aLong, cLong := measure(100_000)
	if cLong <= cShort {
		t.Fatalf("budgets did not separate run lengths: %d vs %d cycles", cShort, cLong)
	}
	perCycle := (aLong - aShort) / float64(cLong-cShort)
	// The only sanctioned steady-state allocations are the per-REF refresh
	// plans — one short row list per tREFI interval, thousands of cycles
	// apart — so anything near one allocation per hundred cycles means a
	// regression on the per-cycle path.
	if perCycle > 0.01 {
		t.Fatalf("steady state allocates %.4f objects per cycle (%+.0f allocations over %d extra cycles)",
			perCycle, aLong-aShort, cLong-cShort)
	}
}

// TestNewSimAllocations pins the set-up cost: the benchmark's setup_s is
// a ~17 µs NewSim, a handful of allocations moves it by more than its
// bound, and checkpoint support must not be paid for at construction.
func TestNewSimAllocations(t *testing.T) {
	mode44, err := mcr.NewMode(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mode mcr.Mode
		max  float64
	}{
		{"off", mcr.Off(), 45},
		{"[4/4x/100%reg]", mode44, 52},
	} {
		cfg := quickCfg("tigr", tc.mode)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := NewSim(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("mode %s: NewSim allocates %.0f objects", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("mode %s: NewSim allocates %.0f objects, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}
