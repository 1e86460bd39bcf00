package sim

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/dram/dramtest"
	"repro/internal/mcr/mcrtest"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/trace"
)

// RunChecked is RunContext with the protocol oracle (dramtest) attached to
// the device of a fresh simulation, ahead of the integrity checker: the
// error is the run's, or else the oracle's when some issued command broke
// a rule. A run that starts from a snapshot runs unchecked, since the
// oracle has not seen the commands before the cut.
func RunChecked(ctx context.Context, cfg Config) (*Result, error) {
	s, err := openSim(cfg)
	if err != nil {
		return nil, err
	}
	var oracle *dramtest.Oracle
	if s.next == 0 {
		var next dram.Observer
		if s.checker != nil {
			next = s.checker
		}
		oracle = dramtest.Attach(s.dev, next)
	}
	res, err := s.Run(ctx)
	if err != nil || oracle == nil {
		return res, err
	}
	return res, oracle.Err()
}

// TestBenchmarkConfigsAreOracleClean runs the six benchmark configurations
// (bench/workloads.go: the sweep as its representative cell, the guarded
// one with its fault population, resilience, observability and snapshot
// writes) at reduced budgets, on each of the four mechanism backends and
// under both engines, with the protocol oracle attached: no issued command
// may break a rule.
func TestBenchmarkConfigsAreOracleClean(t *testing.T) {
	for _, w := range []struct {
		name        string
		workloads   []string
		insts       int64
		mcrOn, quad bool
		guard       bool
	}{
		{"idle_1c", []string{"idle"}, 20_000_000, false, false, false},
		{"membound_1c", []string{"tigr"}, 1_000_000, true, false, false},
		{"writedrain_1c", []string{"stream"}, 2_000_000, false, false, false},
		{"quad_mix", []string{"comm1", "leslie", "stream", "tigr"}, 200_000, true, true, false},
		{"guarded_1c", []string{"tigr"}, 500_000, true, false, true},
		{"sweep_fig11", trace.SingleCoreNames()[:1], 100_000, true, false, false},
	} {
		for _, backend := range []string{"mcr", "tldram", "nuat", "clr"} {
			for _, e := range []Engine{EventDriven, Stepped} {
				t.Run(fmt.Sprintf("%s/%s/%v", w.name, backend, e), func(t *testing.T) {
					cfg := DefaultConfig(w.workloads[0])
					cfg.Workloads = w.workloads
					cfg.InstsPerCore = w.insts
					cfg.Seed = 1
					cfg.Engine = e
					if w.quad {
						cfg.DRAM.Geom = core.MultiCoreGeometry()
					}
					switch backend {
					case "mcr":
						if w.mcrOn {
							cfg.DRAM.Mode = mcrtest.Mode(4, 4, 1)
						}
					case "tldram":
						tl := mech.DefaultTLConfig()
						cfg.DRAM.TL = &tl
					case "nuat":
						nu := mech.DefaultNUATConfig()
						cfg.DRAM.NUAT = &nu
					case "clr":
						cl := mech.DefaultCLRConfig()
						cfg.DRAM.CLR = &cl
					}
					if w.guard {
						guarded(&cfg)
						cfg.Metrics, cfg.Trace = obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCap)
						cfg.Checkpoint = &CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt"), EveryNCycles: 65536}
					}
					if _, err := RunChecked(context.Background(), cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
