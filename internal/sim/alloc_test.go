package sim

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mcr"
	"repro/internal/obs"
)

// guarded attaches what the benchmark's guarded workload attaches short of
// files: its fault population (which brings the integrity checker) and the
// resilience policy.
func guarded(c *Config) {
	c.Fault = &fault.Config{WeakFraction: 1e-3, TailMinFrac: 5e-4, TailMaxFrac: 5e-3}
	c.Resilience = &ResilienceConfig{DowngradeAfter: 4, Quarantine: true}
}

// TestSteadyStateZeroAllocPerCycle is the hot-path hygiene guarantee: the
// steady-state cycle loop of a full run performs no heap allocation — for
// every mech backend, with the obs registry and the tracer attached, with
// the integrity checker as the device's observer, and under both engines.
// Whole-run allocation counts include setup, warmup
// growth (queues, completion heap) and the result epilogue, so each row
// measures two runs differing only in instruction budget and requires the
// allocation delta per extra simulated cycle to vanish. An append that
// grows, a boxed argument or a closure anywhere a cycle reaches — in
// sim, cpu, controller, dram, mech, obs or integrity — fails the row that
// runs it (the checker's shadow grows by chunks and doublings, far apart).
func TestSteadyStateZeroAllocPerCycle(t *testing.T) {
	mode44, err := mcr.NewMode(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tl, nuat, clr := dram.DefaultTLConfig(), dram.DefaultNUATConfig(), dram.DefaultCLRConfig()
	for _, tc := range []struct {
		name string
		mode mcr.Mode
		with func(*Config)
	}{
		{"off", mcr.Off(), func(*Config) {}},
		{"[4/4x]", mode44, func(*Config) {}},
		{"tldram", mcr.Off(), func(c *Config) { c.DRAM.TL = &tl }},
		{"nuat", mcr.Off(), func(c *Config) { c.DRAM.NUAT = &nuat }},
		{"clr", mcr.Off(), func(c *Config) { c.DRAM.CLR = &clr }},
		{"[4/4x]+metrics", mode44, func(c *Config) { c.Metrics = obs.NewRegistry() }},
		{"[4/4x]+metrics+trace", mode44, func(c *Config) {
			c.Metrics = obs.NewRegistry()
			c.Trace = obs.NewTracer(obs.DefaultTraceCap)
		}},
		{"[4/4x]+stepped", mode44, func(c *Config) { c.Engine = Stepped }},
		{"[4/4x]+faults+resilience", mode44, guarded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(insts int64) (allocs float64, cycles int64) {
				allocs = testing.AllocsPerRun(3, func() {
					// Registry and tracer are per run; their construction
					// is the same on both budgets and cancels out.
					cfg := quickCfg("tigr", tc.mode)
					cfg.InstsPerCore = insts
					tc.with(&cfg)
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cycles = res.MemCycles
				})
				return allocs, cycles
			}
			aShort, cShort := measure(20_000)
			aLong, cLong := measure(100_000)
			if cLong <= cShort {
				t.Fatalf("budgets did not separate run lengths: %d vs %d cycles", cShort, cLong)
			}
			perCycle := (aLong - aShort) / float64(cLong-cShort)
			t.Logf("%.5f allocs/cycle (%+.0f allocations over %d extra cycles)", perCycle, aLong-aShort, cLong-cShort)
			// A REF reaches the checker as its base row, so no per-REF row
			// list is allocated either: anything near one allocation per
			// hundred cycles means a regression on the per-cycle path.
			if perCycle > 0.01 {
				t.Fatalf("steady state allocates %.4f objects per cycle (%+.0f allocations over %d extra cycles)",
					perCycle, aLong-aShort, cLong-cShort)
			}
		})
	}
}

// TestNewSimAllocations pins the set-up cost, objects and bytes: the
// benchmark's setup_s is a single-core NewSim of about 7–12 µs (medians of
// `bench/run.sh --workload W --trace 0` for idle_1c, writedrain_1c and
// membound_1c on a 2-vCPU host) timed in batches of 200 from a collected
// heap, a handful of allocations moves it by more than its bound, and 200
// mode-off set-ups sit just under the runtime's 4 MB collection trigger —
// so a field added to Core, loopState, Controller or Device that crosses
// a size class must fail here, not in the benchmark. Checkpoint support
// must not be paid for at construction, and the checker's shadow neither.
// The guarded row reads 57 objects, and up to 59 under the race detector,
// which drops sync.Pool entries at random.
func TestNewSimAllocations(t *testing.T) {
	mode44, err := mcr.NewMode(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	mode22, err := mcr.NewMode(2, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	quadAlloc := func(c *Config) {
		c.Workloads = []string{"comm1", "leslie", "stream", "tigr"}
		c.DRAM.Geom = core.MultiCoreGeometry()
		c.AllocRatio = 0.1
	}
	for _, tc := range []struct {
		name     string
		mode     mcr.Mode
		with     func(*Config)
		max      float64
		maxBytes uint64
	}{
		{"off", mcr.Off(), func(*Config) {}, 40, 15_976},
		{"[4/4x/100%reg]", mode44, func(*Config) {}, 47, 16_744},
		{"[4/4x/100%reg]+faults+resilience", mode44, guarded, 59, 17_456},
		// A Fig 16 cell: the allocator's profile pass, its row maps and
		// the row counts trace.EachRowCount keeps. It reads 378 objects
		// and 801 472 bytes; it took 509 objects and 9 580 070 bytes
		// while every touched bank held a dense permutation.
		{"quad [2/2x/25%reg] 10% allocation", mode22, quadAlloc, 385, 830_000},
	} {
		cfg := quickCfg("tigr", tc.mode)
		tc.with(&cfg)
		build := func() {
			if _, err := NewSim(cfg); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, build)
		// Bytes per NewSim: the least of several batches, because a stray
		// allocation elsewhere in the process (the test log, the runtime)
		// can only add.
		bytes := ^uint64(0)
		for batch := 0; batch < 8; batch++ {
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				build()
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		t.Logf("mode %s: NewSim allocates %.0f objects, %d bytes", tc.name, allocs, bytes)
		if allocs > tc.max {
			t.Errorf("mode %s: NewSim allocates %.0f objects, want at most %.0f", tc.name, allocs, tc.max)
		}
		if bytes > tc.maxBytes && !raceEnabled {
			t.Errorf("mode %s: NewSim allocates %d bytes, want at most %d", tc.name, bytes, tc.maxBytes)
		}
	}
}
