package sim

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// TestScheduleRetentionSafe: with the checker attached, a full run under
// every mechanism (Early-Precharge restore levels included) produces zero
// retention violations — the end-to-end form of the paper's Sec. 3.3
// safety argument.
func TestScheduleRetentionSafe(t *testing.T) {
	for _, mode := range []mcr.Mode{mcr.Off(), mcrtest.Mode(4, 4, 1), mcrtest.Mode(4, 2, 1)} {
		cfg := quickCfg("stream", mode)
		ic := integrity.DefaultConfig()
		cfg.Integrity = &ic
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Integrity) != 0 {
			t.Fatalf("%v: retention violations: %v", mode, res.Integrity[0])
		}
	}
}

// TestCheckerDetectsImpossibleRetention: shrink the retention window below
// what any schedule can satisfy (the 8192-REF walk takes 64 ms) and the
// checker must fire — proving the safety above is a real check, not a
// vacuous pass.
func TestCheckerDetectsImpossibleRetention(t *testing.T) {
	cfg := quickCfg("stream", mcrtest.Mode(4, 4, 1))
	cfg.InstsPerCore = 300_000 // long enough to span ~1 ms of memory time
	ic := integrity.Config{RetentionMs: 0.05}
	cfg.Integrity = &ic
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Integrity) == 0 {
		t.Fatal("a 0.05 ms retention window cannot be met; the checker must fire")
	}
}

// TestCheckerOffByDefault: no observer, no overhead, no report.
func TestCheckerOffByDefault(t *testing.T) {
	res, err := Run(quickCfg("black", mcr.Off()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Integrity != nil {
		t.Fatal("integrity report must be nil when the checker is off")
	}
}

// TestCheckerWorksWithCombinedLayout: the per-band restore levels flow
// through the observer correctly.
func TestCheckerWorksWithCombinedLayout(t *testing.T) {
	cfg := quickCfg("comm2", mcr.Off())
	cfg.DRAM = dram.DefaultConfig(mcr.Off())
	cfg.DRAM.Layout = combinedLayout(t)
	ic := integrity.DefaultConfig()
	cfg.Integrity = &ic
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Integrity) != 0 {
		t.Fatalf("combined layout violated retention: %v", res.Integrity[0])
	}
}

// TestFootnote10RefreshPower pins the paper's footnote 10: the refresh
// power of mode [2/4x/75%reg] is about two thirds of mode [4/4x/75%reg].
// A short simulation only samples the front of the 64 ms REF window, so
// the steady-state ratio is computed from one full window of the device's
// refresh plans weighted by the per-class tRFC energy scaling.
func TestFootnote10RefreshPower(t *testing.T) {
	windowEnergy := func(m int) float64 {
		cfg := dram.DefaultConfig(mcrtest.Mode(4, m, 0.75))
		dev, err := dram.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tim := dev.Timings()
		sched, err := mcr.NewLayoutScheduler(dev.Generator(), cfg.Wiring, cfg.Geom.Rows)
		if err != nil {
			t.Fatal(err)
		}
		var e float64
		for c := 0; c < 8192; c++ {
			op := sched.Plan(c)
			if op.Skipped {
				continue
			}
			if op.InMCR {
				e += float64(tim.RefreshPerK[op.K]) / float64(tim.Normal.TRFC)
			} else {
				e += 1
			}
		}
		return e
	}
	ratio := windowEnergy(2) / windowEnergy(4)
	// Paper footnote 10: ~66.3%.
	if ratio < 0.55 || ratio > 0.75 {
		t.Fatalf("steady-state refresh energy ratio 2/4x vs 4/4x = %.3f, paper says ~0.66", ratio)
	}
}
