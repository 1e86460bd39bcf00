package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// ckptTraceCap is the tracer capacity shared by every run of a parity
// comparison: restoring trace events requires identical ring capacity.
const ckptTraceCap = 256

// checkpointConfigs covers all five mechanism backends, each with fault
// injection enabled (so the integrity checker and its violation state
// ride along); the MCR config additionally runs the resilience policy
// with governor and quarantine, plus profile-based allocation.
func checkpointConfigs(t *testing.T) map[string]sim.Config {
	t.Helper()
	base := func(workload string) sim.Config {
		cfg := sim.DefaultConfig(workload)
		cfg.InstsPerCore = 60_000
		cfg.Seed = 3
		cfg.Fault = &fault.Config{Seed: 3, WeakFraction: 0.05, TailMinFrac: 0.0005, TailMaxFrac: 0.005}
		return cfg
	}
	mode44, err := mcr.NewMode(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := make(map[string]sim.Config)

	c := base("stream")
	c.DRAM = dram.DefaultConfig(mode44)
	c.AllocRatio = 0.5
	c.Resilience = &sim.ResilienceConfig{DowngradeAfter: 2, Quarantine: true}
	cfgs["mcr"] = c

	c = base("stream")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	tl := dram.DefaultTLConfig()
	c.DRAM.TL = &tl
	cfgs["tldram"] = c

	c = base("mummer")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	nu := dram.DefaultNUATConfig()
	c.DRAM.NUAT = &nu
	cfgs["nuat"] = c

	c = base("stream")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	cr := dram.DefaultCROWConfig()
	c.DRAM.CROW = &cr
	cfgs["crow"] = c

	c = base("mummer")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	cl := dram.DefaultCLRConfig()
	c.DRAM.CLR = &cl
	cfgs["clr"] = c

	return cfgs
}

// boundedCtx is the context every parity, checkpoint and resume test runs
// under: a restore that forgets a piece of derived state livelocks the
// run, and that must fail here in seconds with the context's error, not
// at go test's ten-minute timeout. The runs take well under a second.
func boundedCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// resultJSON runs cfg (with fresh observability attachments) and renders
// the Result with the nondeterministic wall clock zeroed.
func resultJSON(t *testing.T, ctx context.Context, cfg sim.Config) []byte {
	t.Helper()
	cfg.Metrics = obs.NewRegistry()
	cfg.Trace = obs.NewTracer(ckptTraceCap)
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Wall = 0
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointResumeParity is the tentpole's correctness pin: for every
// mechanism backend, a run interrupted mid-flight and restored from its
// checkpoint must produce a Result byte-identical to the uninterrupted
// run — with fault injection, metrics and tracing all enabled.
func TestCheckpointResumeParity(t *testing.T) {
	for name, cfg := range checkpointConfigs(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			want := resultJSON(t, boundedCtx(t), cfg)

			// Interrupted run: cancel at the first checkpoint write; the
			// loop notices at the next amortized poll, well before the run
			// finishes.
			ctx, cancel := context.WithCancel(boundedCtx(t))
			defer cancel()
			var wrote int64
			icfg := cfg
			icfg.Metrics = obs.NewRegistry()
			icfg.Trace = obs.NewTracer(ckptTraceCap)
			icfg.Checkpoint = &sim.CheckpointConfig{
				Path:         path,
				EveryNCycles: 4096,
				Resume:       true,
				OnWrite: func(cycle int64) {
					if wrote == 0 {
						wrote = cycle
					}
					cancel()
				},
			}
			if _, err := sim.RunContext(ctx, icfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: want context.Canceled, got %v (did the run finish before a checkpoint was due?)", err)
			}
			if wrote == 0 {
				t.Fatal("checkpoint write hook never fired")
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("no checkpoint on disk after interruption: %v", err)
			}

			// Resumed run: strict restore from the snapshot, then to
			// completion.
			var resumedAt int64
			rcfg := cfg
			rcfg.Checkpoint = &sim.CheckpointConfig{
				Path:         path,
				EveryNCycles: 4096,
				Resume:       true,
				Strict:       true,
				OnResume:     func(cycle int64) { resumedAt = cycle },
			}
			got := resultJSON(t, boundedCtx(t), rcfg)
			if resumedAt != wrote {
				t.Errorf("resumed at cycle %d, checkpoint was written at %d", resumedAt, wrote)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resumed Result diverged from uninterrupted run\n got: %s\nwant: %s", got, want)
			}
			// A completed run removes its snapshot so a rerun starts fresh.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("checkpoint not removed after successful completion: %v", err)
			}
		})
	}
}

// TestRestoreConfigMismatch: a snapshot restored under a different
// configuration is refused with the typed error.
func TestRestoreConfigMismatch(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 10_000
	s, err := sim.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	if _, err := sim.Restore(bytes.NewReader(buf.Bytes()), other); !errors.Is(err, snapshot.ErrConfigMismatch) {
		t.Fatalf("want snapshot.ErrConfigMismatch, got %v", err)
	}
	// The matching config restores fine.
	if _, err := sim.Restore(bytes.NewReader(buf.Bytes()), cfg); err != nil {
		t.Fatalf("restore under the original config: %v", err)
	}
}

// TestResumeMissingSnapshot: a resume without a snapshot starts fresh by
// default and errors under Strict.
func TestResumeMissingSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.ckpt")
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 10_000
	cfg.Checkpoint = &sim.CheckpointConfig{Path: path, Resume: true}
	if _, err := sim.RunContext(boundedCtx(t), cfg); err != nil {
		t.Fatalf("lenient resume with no snapshot must start fresh: %v", err)
	}
	cfg.Checkpoint.Strict = true
	if _, err := sim.RunContext(boundedCtx(t), cfg); err == nil {
		t.Fatal("strict resume with no snapshot must fail")
	}
}

// TestResumeCorruptSnapshot: a damaged snapshot file is a fresh start by
// default and a typed error under Strict — never a panic.
func TestResumeCorruptSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.ckpt")
	if err := os.WriteFile(path, []byte("MCRSNAP1 but then garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 10_000
	cfg.Checkpoint = &sim.CheckpointConfig{Path: path, Resume: true, Strict: true}
	if _, err := sim.RunContext(boundedCtx(t), cfg); !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("strict resume from corrupt snapshot: want typed snapshot error, got %v", err)
	}
	cfg.Checkpoint.Strict = false
	if _, err := sim.RunContext(boundedCtx(t), cfg); err != nil {
		t.Fatalf("lenient resume from corrupt snapshot must start fresh: %v", err)
	}
}

// TestCheckpointValidation: contradictory checkpoint settings are
// configuration errors, caught before the run starts.
func TestCheckpointValidation(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 1000
	cfg.Checkpoint = &sim.CheckpointConfig{EveryNCycles: 4096}
	if _, err := sim.RunContext(boundedCtx(t), cfg); err == nil {
		t.Fatal("EveryNCycles without a path must be rejected")
	}
	cfg.Checkpoint = &sim.CheckpointConfig{Path: "x", EveryNCycles: -1}
	if _, err := sim.RunContext(boundedCtx(t), cfg); err == nil {
		t.Fatal("negative EveryNCycles must be rejected")
	}
}
