package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/sim"
)

// engineResultJSON runs cfg under the given engine with fresh
// observability attachments and renders the Result with the wall clock
// and the engine accounting normalized (both legitimately differ across
// engines); the unnormalized observability snapshot is returned alongside
// for skip-ratio assertions.
func engineResultJSON(t *testing.T, cfg sim.Config, e sim.Engine) ([]byte, obs.Snapshot) {
	t.Helper()
	cfg.Engine = e
	cfg.Metrics = obs.NewRegistry()
	cfg.Trace = obs.NewTracer(ckptTraceCap)
	res, err := sim.RunContext(boundedCtx(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Wall = 0
	snap := *res.Obs
	res.Obs.EngineSteppedCycles, res.Obs.EngineSkippedCycles = 0, 0
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out, snap
}

// engineParityConfigs is the stepped-vs-event-driven matrix: the five
// mechanism backends of checkpointConfigs, then one configuration per
// place the scheduling walk folds a wake time that the default
// controller never reaches — close-page housekeeping, the FCFS and
// starved pass shapes, a skipped REF retiring debt, a refresh forced the
// cycle it falls due, spans crossing a refresh window with power-down
// off — the four-core geometry over three seeds, and the rows that pin the
// per-step core elision (below).
func engineParityConfigs(t *testing.T) map[string]sim.Config {
	t.Helper()
	cfgs := checkpointConfigs(t)
	mode44, err := mcr.NewMode(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	mode24, err := mcr.NewMode(4, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	base := func(workload string, mode mcr.Mode) sim.Config {
		cfg := sim.DefaultConfig(workload)
		cfg.DRAM = dram.DefaultConfig(mode)
		cfg.InstsPerCore = 200_000
		cfg.Seed = 3
		return cfg
	}

	c := base("mummer", mode44)
	c.Ctrl.RowPolicy = controller.ClosePage
	cfgs["close_page"] = c

	c = base("stream", mode44)
	c.Ctrl.Scheduler = controller.FCFS
	cfgs["fcfs"] = c

	c = base("stream", mode44)
	c.Ctrl.StarvationLimit = 100
	cfgs["starvation"] = c

	c = base("stream", mode44)
	c.Ctrl.StarvationLimit = 100
	c.Ctrl.RowPolicy = controller.ClosePage
	cfgs["starvation_close_page"] = c

	c = base("comm2", mode24) // Mech is AllMechanisms: Refresh-Skipping on
	cfgs["refresh_skipping_2of4x"] = c

	c = base("mummer", mode44)
	c.Ctrl.MaxRefreshDebt = 1
	cfgs["max_refresh_debt_1"] = c

	c = base("comm2", mcr.Off())
	c.PowerDownCycles = 0
	cfgs["no_power_down"] = c

	quad := func(seed int64) sim.Config {
		c := base("comm1", mode44)
		c.DRAM.Geom = core.MultiCoreGeometry()
		c.Workloads = []string{"comm1", "leslie", "stream", "tigr"}
		c.InstsPerCore = 100_000
		c.Seed = seed
		return c
	}
	for _, seed := range []int64{1, 2, 7} {
		cfgs[fmt.Sprintf("quad_seed%d", seed)] = quad(seed)
	}

	// The event engine replaces the Cycle calls of every core that cannot
	// reach the controller by cpu.FastForward or by nothing, so each row
	// below is a differential of that replay against stepping: a core
	// whose shape keeps the per-cycle fallback, one that moves every
	// constant of the closed form, queues small enough to refuse (where a
	// reordered enqueue would show), a warm-up point crossed inside an
	// elided memory cycle, and more cores than the elision mask has bits.
	c = base("comm1", mode44)
	c.CPU = cpu.Config{ROBSize: 128, FetchWidth: 2, RetireWidth: 4, PipelineDepth: 10}
	cfgs["core_fetch_narrower_than_retire"] = c

	c = base("mummer", mode44)
	c.CPU = cpu.Config{ROBSize: 96, FetchWidth: 6, RetireWidth: 3, PipelineDepth: 0}
	cfgs["core_rob96_f6_r3_d0"] = c

	c = quad(3)
	c.Ctrl.ReadQueueCap, c.Ctrl.WriteQueueCap = 6, 6
	c.Ctrl.HighWatermark, c.Ctrl.LowWatermark = 4, 2
	cfgs[smallQueues] = c

	c = quad(5)
	c.WarmupInsts = 30_000
	cfgs["quad_warmup"] = c

	c = base("comm1", mode44)
	c.DRAM.Geom = core.MultiCoreGeometry()
	c.Workloads = nil
	for i, names := 0, []string{"comm1", "idle", "stream", "tigr", "black"}; i < 66; i++ {
		c.Workloads = append(c.Workloads, names[i%len(names)])
	}
	c.InstsPerCore = 6_000
	cfgs["cores_66"] = c
	return cfgs
}

// smallQueues names the parity row whose queues are small enough to
// refuse requests; TestEngineParity checks that they did.
const smallQueues = "quad_small_queues"

// TestEngineParity is the tentpole's master correctness pin: for every
// mechanism backend — each with fault injection, metrics and tracing, the
// MCR one additionally with resilience, quarantine and profile
// allocation — and for every controller policy that changes the shape of
// the scheduling walk, the event-driven engine must produce a Result
// byte-identical to the stepped reference loop, and must actually skip
// cycles while doing so.
func TestEngineParity(t *testing.T) {
	for name, cfg := range engineParityConfigs(t) {
		t.Run(name, func(t *testing.T) {
			want, _ := engineResultJSON(t, cfg, sim.Stepped)
			got, snap := engineResultJSON(t, cfg, sim.EventDriven)
			if !bytes.Equal(got, want) {
				t.Errorf("event-driven Result diverged from stepped reference\n got: %s\nwant: %s", got, want)
			}
			if snap.EngineSkippedCycles == 0 {
				t.Error("event-driven engine skipped no cycles; the parity check is vacuous")
			}
			if name == smallQueues {
				// Rejections are where an elided core could reorder what
				// the others see: every core must have met some.
				var res sim.Result
				if err := json.Unmarshal(got, &res); err != nil {
					t.Fatal(err)
				}
				for _, cs := range res.Cores {
					if cs.FetchStalls == 0 {
						t.Errorf("core %d met no queue-full rejection; the row pins nothing", cs.CoreID)
					}
				}
			}
		})
	}
}

// TestEngineCrossCheckpointRestore pins that snapshots carry no engine
// state: a run interrupted under one engine and restored under the other
// still matches the uninterrupted stepped reference byte for byte, in
// both directions.
func TestEngineCrossCheckpointRestore(t *testing.T) {
	cfg := checkpointConfigs(t)["mcr"]
	want, _ := engineResultJSON(t, cfg, sim.Stepped)
	_, total := checkpointedJSON(t, cfg)
	cases := []struct {
		name          string
		first, second sim.Engine
	}{
		{"stepped_to_event", sim.Stepped, sim.EventDriven},
		{"event_to_stepped", sim.EventDriven, sim.Stepped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range cutPoints(t, total) {
				icfg := cfg
				icfg.Engine = tc.first
				path, _ := interruptAt(t, icfg, k, total)
				rcfg := cfg
				rcfg.Checkpoint = &sim.CheckpointConfig{
					Path:         path,
					EveryNCycles: 4096,
					Resume:       true,
					Strict:       true,
				}
				got, _ := engineResultJSON(t, rcfg, tc.second)
				if !bytes.Equal(got, want) {
					t.Errorf("cut %d of %d: %s restore diverged from uninterrupted stepped run\n got: %s\nwant: %s", k, total, tc.name, got, want)
				}
			}
		})
	}
}

// TestEngineSaturatedWorkloadCompletes is the zero-length-skip livelock
// regression: on a memory-saturated workload nearly every skipTarget call
// answers "nothing skippable", and the loop must keep stepping (not spin)
// all the way to a Result identical to the stepped engine's.
func TestEngineSaturatedWorkloadCompletes(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 60_000
	cfg.Seed = 5
	want, _ := engineResultJSON(t, cfg, sim.Stepped)
	got, _ := engineResultJSON(t, cfg, sim.EventDriven)
	if !bytes.Equal(got, want) {
		t.Errorf("saturated-workload Result diverged\n got: %s\nwant: %s", got, want)
	}
}

// TestSkipRatioSmoke asserts the engine earns its keep where it should,
// at the benchmark's budgets: floors just under the exact skip ratios of
// the idle workload (nearly everything is skipped), a write-heavy
// streaming one with MCR off and a memory-bound one at [4/4x]. The ratio
// is a count of simulated cycles, not a time, so it repeats exactly; a
// bound that starts halving its way across long gaps again, or a core
// that keeps the loop awake while it cannot act, shows here first.
func TestSkipRatioSmoke(t *testing.T) {
	mode44, err := mcr.NewMode(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload string
		mode     mcr.Mode
		insts    int64
		floor    float64
	}{
		{"idle", mcr.Off(), 200_000_000, 0.9950},
		{"stream", mcr.Off(), 2_000_000, 0.45},
		{"tigr", mode44, 1_000_000, 0.33},
	} {
		cfg := sim.DefaultConfig(tc.workload)
		cfg.DRAM = dram.DefaultConfig(tc.mode)
		cfg.InstsPerCore = tc.insts
		cfg.Metrics = obs.NewRegistry()
		res, err := sim.RunContext(boundedCtx(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := res.Obs.SkipRatio()
		t.Logf("%s %s: skip ratio %.4f (stepped %d, skipped %d)", tc.workload, tc.mode, r, res.Obs.EngineSteppedCycles, res.Obs.EngineSkippedCycles)
		if r <= tc.floor {
			t.Errorf("skip ratio %.4f on %s %s, want > %.4f (stepped %d, skipped %d)",
				r, tc.workload, tc.mode, tc.floor, res.Obs.EngineSteppedCycles, res.Obs.EngineSkippedCycles)
		}
	}
}
