package sim_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// randomConfigDraws is how many seeded configurations
// TestRandomConfigParity runs under both engines.
const randomConfigDraws = 200

// pick returns one of xs.
func pick[T any](rng *rand.Rand, xs ...T) T { return xs[rng.Intn(len(xs))] }

// drawConfig draws one valid configuration over every axis the event
// engine's closed forms depend on. The axes, in order:
//
//   - workloads: 1-4 cores from the 16 single-core profiles and the idle
//     stressor, a shared footprint for several cores, and the single- or
//     multi-core geometry;
//   - the device: MCR off, a mode [M/Kx/L%reg] with a profile-based
//     allocation ratio, the combined 4x+2x layout with its two ratios, or
//     the TL, NUAT or CLR backend; either wiring and any subset of the
//     four mechanism toggles;
//   - the controller: scheduler, row policy, address mapping, queue caps,
//     drain watermarks and refresh debt;
//   - the core: ROB, fetch and retire widths, pipeline depth, and a
//     warm-up point inside the run;
//   - faults, alone or with the resilience policy (downgrades and
//     quarantine), and the integrity checker's retention window.
func drawConfig(rng *rand.Rand) sim.Config {
	names := append(trace.SingleCoreNames(), "idle")
	cfg := sim.DefaultConfig(pick(rng, names...))
	for n := rng.Intn(4); n > 0; n-- {
		cfg.Workloads = append(cfg.Workloads, pick(rng, names...))
	}
	if len(cfg.Workloads) > 1 {
		cfg.SharedFootprint = rng.Intn(4) == 0
	}
	if len(cfg.Workloads) > 1 || rng.Intn(4) == 0 {
		cfg.DRAM.Geom = core.MultiCoreGeometry()
	}
	cfg.InstsPerCore = 4_000 + rng.Int63n(16_000)
	cfg.Seed = 1 + rng.Int63n(1_000)

	switch rng.Intn(7) {
	case 0: // MCR off
	case 1, 2:
		k := pick(rng, 2, 4)
		cfg.DRAM.Mode = mcr.Mode{K: k, M: min(pick(rng, 1, 2, 4), k), Region: pick(rng, 0.25, 0.5, 0.75, 1)}
		cfg.AllocRatio = pick(rng, 0, 0, 0.1, 0.3, 0.5)
	case 3:
		cfg.DRAM.Layout = mcr.Layout{Bands: []mcr.Band{
			{K: 4, M: pick(rng, 1, 2, 4), Region: pick(rng, 0.25, 0.5)},
			{K: 2, M: pick(rng, 1, 2), Region: pick(rng, 0.25, 0.5)},
		}}
		cfg.AllocRatio4, cfg.AllocRatio2 = pick(rng, 0, 0.05, 0.2), pick(rng, 0, 0.1, 0.25)
	case 4:
		tl := mech.DefaultTLConfig()
		cfg.DRAM.TL = &tl
	case 5:
		nu := mech.DefaultNUATConfig()
		cfg.DRAM.NUAT = &nu
	case 6:
		cl := mech.DefaultCLRConfig()
		cl.HotThreshold = pick(rng, 1, 2, cl.HotThreshold)
		cfg.DRAM.CLR = &cl
	}
	cfg.DRAM.Wiring = pick(rng, mcr.KtoN1K, mcr.KtoK)
	toggles := rng.Intn(16)
	cfg.DRAM.Mech = mech.Toggles{
		EarlyAccess:     toggles&1 != 0,
		EarlyPrecharge:  toggles&2 != 0,
		FastRefresh:     toggles&4 != 0,
		RefreshSkipping: toggles&8 != 0,
	}

	c := &cfg.Ctrl
	c.Scheduler = pick(rng, controller.FRFCFS, controller.FCFS)
	c.RowPolicy = pick(rng, controller.OpenPage, controller.ClosePage)
	c.Mapping = pick(rng, controller.PageInterleave, controller.PermutationInterleave, controller.BitReversal)
	c.ReadQueueCap = pick(rng, 4, 8, 16, 32)
	c.WriteQueueCap = pick(rng, 4, 8, 16, 32)
	c.LowWatermark = rng.Intn(c.WriteQueueCap)
	c.HighWatermark = c.LowWatermark + 1 + rng.Intn(c.WriteQueueCap-c.LowWatermark)
	c.MaxRefreshDebt = 1 + rng.Intn(8)

	cfg.CPU = cpu.Config{
		ROBSize:       pick(rng, 8, 32, 96, 128, 192),
		FetchWidth:    1 + rng.Intn(6),
		RetireWidth:   1 + rng.Intn(4),
		PipelineDepth: rng.Intn(13),
	}
	if rng.Intn(3) == 0 {
		cfg.WarmupInsts = rng.Int63n(cfg.InstsPerCore)
	}

	if rng.Intn(2) == 0 {
		tail := pick(rng, 0.00001, 0.0005) // the shorter tails fail inside a short run
		cfg.Fault = &fault.Config{Seed: rng.Int63n(100), WeakFraction: pick(rng, 0.001, 0.01, 0.05), TailMinFrac: tail, TailMaxFrac: 10 * tail}
		if rng.Intn(3) == 0 {
			ic := integrity.DefaultConfig()
			ic.RetentionMs = pick(rng, 8.0, 16.0, ic.RetentionMs)
			cfg.Integrity = &ic
		}
		if rng.Intn(2) == 0 {
			cfg.Resilience = &sim.ResilienceConfig{DowngradeAfter: pick(rng, 0, 1, 1, 2), Quarantine: rng.Intn(2) == 0}
		}
	}
	return cfg
}

// TestRandomConfigParity holds the event-driven engine to the stepped
// reference on seeded random configurations (drawConfig lists the axes):
// every draw must be a valid configuration, and its Result must be byte
// for byte the same under both engines, the obs engine split aside. The
// hand-written matrix of TestEngineParity pins the known corners; this
// catches a closed form that is exact only on the paper's machine.
func TestRandomConfigParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < randomConfigDraws; i++ {
		cfg := drawConfig(rng)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("draw %d is not a valid configuration: %v", i, err)
		}
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			want, _ := engineResultJSON(t, cfg, sim.Stepped)
			got, _ := engineResultJSON(t, cfg, sim.EventDriven)
			if !bytes.Equal(got, want) {
				t.Errorf("event-driven Result diverged from stepped reference on %+v\n got: %s\nwant: %s", cfg, got, want)
			}
		})
	}
}

// FuzzConfigParity is TestRandomConfigParity with the draw seeded from
// the fuzz input: whatever the seed, the drawn configuration is valid and
// both engines produce the same Result, the obs engine split aside.
func FuzzConfigParity(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		cfg := drawConfig(rand.New(rand.NewSource(seed)))
		if err := cfg.Validate(); err != nil {
			t.Fatalf("seed %d draws an invalid configuration: %v", seed, err)
		}
		want, _ := engineResultJSON(t, cfg, sim.Stepped)
		got, _ := engineResultJSON(t, cfg, sim.EventDriven)
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: event-driven Result diverged from stepped reference on %+v\n got: %s\nwant: %s", seed, cfg, got, want)
		}
	})
}

// randomResumeDraws is how many seeded configurations
// TestRandomResumeParity cuts and resumes.
const randomResumeDraws = 40

// TestRandomResumeParity cuts seeded random configurations (drawConfig)
// at a random snapshot write, under a random engine, and resumes each
// under a random engine: the resumed Result must be byte-identical to the
// uninterrupted checkpointed run's. The obs engine split is compared too
// when the cut, the resume and the reference all ran the default engine;
// otherwise it counts steps of two engines and is zeroed. Each draw's
// budget is eight times drawConfig's, so that every run writes snapshots
// to cut at.
func TestRandomResumeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < randomResumeDraws; i++ {
		cfg := drawConfig(rng)
		cfg.InstsPerCore *= 8
		if err := cfg.Validate(); err != nil {
			t.Fatalf("draw %d is not a valid configuration: %v", i, err)
		}
		cutEngine, resumeEngine := pick(rng, sim.EventDriven, sim.Stepped), pick(rng, sim.EventDriven, sim.Stepped)
		k := rng.Int63() // the write to cut at, modulo the run's total
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			want, wantNoSplit, total := checkpointedJSON(t, cfg)
			if total == 0 {
				t.Fatal("the run finishes before its first snapshot")
			}
			ccfg := cfg
			ccfg.Engine = cutEngine
			at := 1 + int(k%int64(total))
			path, _ := interruptAt(t, ccfg, at, total)
			rcfg := cfg
			rcfg.Engine = resumeEngine
			rcfg.Checkpoint = &sim.CheckpointConfig{Path: path, EveryNCycles: 4096, Resume: true, Strict: true}
			got, gotNoSplit := resultJSON(t, boundedCtx(t), rcfg)
			if cutEngine != sim.EventDriven || resumeEngine != sim.EventDriven {
				got, want = gotNoSplit, wantNoSplit
			}
			if !bytes.Equal(got, want) {
				t.Errorf("cut at write %d of %d (engines %v then %v): resumed Result diverged from the uninterrupted checkpointed run on %+v\n got: %s\nwant: %s",
					at, total, cutEngine, resumeEngine, cfg, got, want)
			}
		})
	}
}

// randomDeadlineDraws is how many seeded configurations
// TestRandomDeadlineResume cancels and resumes.
const randomDeadlineDraws = 40

// TestRandomDeadlineResume cancels seeded random configurations
// (drawConfig, at TestRandomResumeParity's budget) that write a snapshot
// every 4096 cycles, each at a random wall-clock deadline of up to 1.2
// times its uninterrupted run's time, then resumes each from what it
// left. The cancelled run fails with context.DeadlineExceeded or
// finishes; it leaves no file but its snapshot; and the resumed Result is
// byte-identical to the uninterrupted checkpointed run's.
func TestRandomDeadlineResume(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cancelled := 0
	for i := 0; i < randomDeadlineDraws; i++ {
		cfg := drawConfig(rng)
		cfg.InstsPerCore *= 8
		frac := 1.2 * rng.Float64()
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			start := time.Now()
			want, _, _ := checkpointedJSON(t, cfg)
			deadline := time.Duration(frac * float64(time.Since(start)))

			dir := t.TempDir()
			path := filepath.Join(dir, "run.ckpt")
			ccfg := cfg
			ccfg.Metrics = obs.NewRegistry()
			ccfg.Trace = obs.NewTracer(ckptTraceCap)
			ccfg.Checkpoint = &sim.CheckpointConfig{Path: path, EveryNCycles: 4096, Resume: true}
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			_, err := sim.RunContext(ctx, ccfg)
			cancel()
			if err != nil {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("cancelled at %v: want context.DeadlineExceeded, got %v", deadline, err)
				}
				cancelled++
			}
			entries, rerr := os.ReadDir(dir)
			if rerr != nil {
				t.Fatal(rerr)
			}
			for _, e := range entries {
				if e.Name() != "run.ckpt" || err == nil {
					t.Fatalf("a run cancelled at %v (err %v) left %q", deadline, err, e.Name())
				}
			}

			rcfg := cfg
			rcfg.Checkpoint = &sim.CheckpointConfig{Path: path, EveryNCycles: 4096, Resume: true}
			if got, _ := resultJSON(t, boundedCtx(t), rcfg); !bytes.Equal(got, want) {
				t.Errorf("cancelled at %v: resumed Result diverged from the uninterrupted checkpointed run on %+v\n got: %s\nwant: %s",
					deadline, cfg, got, want)
			}
		})
	}
	t.Logf("%d of %d runs were cancelled", cancelled, randomDeadlineDraws)
}
