package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
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
// off — and the four-core geometry over three seeds.
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

	for _, seed := range []int64{1, 2, 7} {
		c = base("comm1", mode44)
		c.DRAM.Geom = core.MultiCoreGeometry()
		c.Workloads = []string{"comm1", "leslie", "stream", "tigr"}
		c.InstsPerCore = 100_000
		c.Seed = seed
		cfgs[fmt.Sprintf("quad_seed%d", seed)] = c
	}
	return cfgs
}

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

// TestSkipRatioSmoke asserts the engine earns its keep where it should:
// on the low-MPKI idle workload, well over half the simulated cycles must
// be skipped rather than stepped.
func TestSkipRatioSmoke(t *testing.T) {
	cfg := sim.DefaultConfig("idle")
	cfg.InstsPerCore = 200_000
	cfg.Seed = 2
	cfg.Metrics = obs.NewRegistry()
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Obs.SkipRatio(); r <= 0.5 {
		t.Errorf("skip ratio %.3f on the idle workload, want > 0.5 (stepped %d, skipped %d)",
			r, res.Obs.EngineSteppedCycles, res.Obs.EngineSkippedCycles)
	}
}
