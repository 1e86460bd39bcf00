package sim_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/sim"
)

// parityConfigs are the seed configurations pinned by the golden files
// under testdata/. They cover every pre-refactor RowParams branch: both
// MCR gangs, a combined layout with tiered allocation, a mechanism
// ablation, and the TL-DRAM / NUAT comparator baselines.
func parityConfigs(t *testing.T) map[string]sim.Config {
	t.Helper()
	mode22, err := mcr.NewMode(2, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	mode44, err := mcr.NewMode(4, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := mcr.NewLayout(
		mcr.Band{K: 4, M: 4, Region: 0.25},
		mcr.Band{K: 2, M: 2, Region: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}

	base := func(workload string) sim.Config {
		cfg := sim.DefaultConfig(workload)
		cfg.InstsPerCore = 40_000
		cfg.Seed = 3
		return cfg
	}

	cfgs := make(map[string]sim.Config)

	c := base("stream")
	c.DRAM = dram.DefaultConfig(mode22)
	cfgs["mcr_2x"] = c

	c = base("mummer")
	c.DRAM = dram.DefaultConfig(mode44)
	c.AllocRatio = 0.5
	cfgs["mcr_4x_alloc"] = c

	c = base("comm2")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	c.DRAM.Layout = layout
	c.AllocRatio4, c.AllocRatio2 = 0.25, 0.25
	cfgs["combined"] = c

	c = base("stream")
	c.DRAM = dram.DefaultConfig(mode44)
	c.DRAM.Mech = dram.Mechanisms{EarlyAccess: true}
	cfgs["ablation_ea"] = c

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
	c.DRAM = dram.DefaultConfig(mode22)
	c.DRAM.Wiring = mcr.KtoK
	cfgs["wiring_ktok"] = c

	return cfgs
}

// TestResultParityGolden pins the Mechanism refactor: every seed config
// must produce a Result byte-identical to the one the pre-refactor code
// path produced (goldens generated before internal/mech existed). Wall
// time is zeroed — it is the one nondeterministic field.
//
// Regenerate (only for intentional model changes) with:
//
//	UPDATE_PARITY_GOLDEN=1 go test ./internal/sim -run TestResultParityGolden
func TestResultParityGolden(t *testing.T) {
	update := os.Getenv("UPDATE_PARITY_GOLDEN") != ""
	for name, cfg := range parityConfigs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := sim.RunContext(boundedCtx(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res.Wall = 0
			// The goldens predate the mechanism seam; the identification
			// fields carry omitempty, so zeroing them keeps the JSON shape
			// byte-identical to the pre-refactor marshalling.
			res.Mechanism = ""
			res.MechStats = nil
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", fmt.Sprintf("parity_%s.golden.json", name))
			if update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_PARITY_GOLDEN=1 to generate): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("Result diverged from pre-refactor golden %s\n(run with UPDATE_PARITY_GOLDEN=1 ONLY if the model change is intentional)", path)
			}
		})
	}
}
