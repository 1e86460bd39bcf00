package sim

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/mcr/mcrtest"
)

// faultyCfg builds a [4/4x] run with an aggressive seeded weak-cell tail:
// a large weak fraction with retention compressed far below the window,
// so weak rows observably fail within a simulation-sized run.
func faultyCfg(insts int64) Config {
	cfg := quickCfg("stream", mcrtest.Mode(4, 4, 1))
	cfg.InstsPerCore = insts
	cfg.Fault = &fault.Config{
		Seed:         3,
		WeakFraction: 0.05,
		TailMinFrac:  0.0005,
		TailMaxFrac:  0.005,
	}
	return cfg
}

// TestFaultInjectionSurfacesViolations is the end-to-end detection half of
// the tentpole's acceptance claim: at mode [4/4x] with a seeded
// retention-tail injection and no degradation policy, the checker reports
// the injected at-risk cells — and nothing else (every flagged row is in
// the injected weak population).
func TestFaultInjectionSurfacesViolations(t *testing.T) {
	cfg := faultyCfg(150_000)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Integrity) == 0 {
		t.Fatal("seeded weak cells at [4/4x] must surface as violations")
	}
	fm, err := fault.NewModel(fault.Config{
		Seed: 3, WeakFraction: 0.05, TailMinFrac: 0.0005, TailMaxFrac: 0.005,
	}, cfg.DRAM.Geom.Rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Integrity {
		if !fm.IsWeak(v.Row) {
			t.Fatalf("violation on nominal row %d: the checker invented a fault (%v)", v.Row, v)
		}
		if v.Mode == "" || v.K < 1 {
			t.Fatalf("violation lacks MCR context: %+v", v)
		}
	}
}

// TestFaultSeedInheritsRunSeed: Fault.Seed 0 uses Config.Seed, so two
// runs differing only in run seed sample different weak populations.
func TestFaultSeedInheritsRunSeed(t *testing.T) {
	run := func(seed int64) int {
		cfg := faultyCfg(60_000)
		cfg.Fault.Seed = 0
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Integrity)
	}
	// Not a strict inequality test (populations can coincide in size);
	// just prove both paths run and the checker is live.
	if run(1) == 0 && run(99) == 0 {
		t.Fatal("neither seed produced violations; fault wiring is dead")
	}
}

// TestResilienceDegradesMode is the degradation half of the acceptance
// claim: with the policy armed, sustained ECC events step the governor
// ladder and the controller applies safer modes mid-run.
func TestResilienceDegradesMode(t *testing.T) {
	cfg := faultyCfg(300_000)
	cfg.Resilience = &ResilienceConfig{DowngradeAfter: 2, Quarantine: true}
	res, err := RunChecked(context.Background(), cfg) // every command legal across the MRS drains and quarantines
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Resilience
	if rs == nil {
		t.Fatal("Resilience stats missing")
	}
	if rs.ECCEvents == 0 {
		t.Fatal("seeded weak cells must produce ECC events")
	}
	if rs.Downgrades == 0 {
		t.Fatalf("policy never degraded the mode: %+v", rs)
	}
	if rs.InitialMode == rs.FinalMode {
		t.Fatalf("mode label unchanged after %d downgrades: %q", rs.Downgrades, rs.FinalMode)
	}
	if rs.QuarantinedRows == 0 {
		t.Fatal("quarantine armed but no rows demoted")
	}
	if rs.FirstErrorMs <= 0 || rs.MTBFMs <= 0 {
		t.Fatalf("timing stats missing: %+v", rs)
	}
	if res.Ctrl.ModeChanges == 0 {
		t.Fatal("controller never applied an MRS")
	}
}

// TestResilienceDetectOnly: a zero-value policy observes (ECC events,
// MTBF) without quarantining or downgrading.
func TestResilienceDetectOnly(t *testing.T) {
	cfg := faultyCfg(150_000)
	cfg.Resilience = &ResilienceConfig{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Resilience
	if rs == nil {
		t.Fatal("Resilience stats missing")
	}
	if rs.ECCEvents == 0 {
		t.Fatal("detect-only policy must still count ECC events")
	}
	if rs.Downgrades != 0 || rs.QuarantinedRows != 0 {
		t.Fatalf("detect-only policy acted: %+v", rs)
	}
	if rs.InitialMode != rs.FinalMode {
		t.Fatalf("detect-only policy changed the mode: %q -> %q", rs.InitialMode, rs.FinalMode)
	}
	if res.Ctrl.ModeChanges != 0 {
		t.Fatal("detect-only policy must not issue MRS")
	}
}

// TestResilienceCleanRun: the policy on a fault-free run reports zeroes
// and never intervenes.
func TestResilienceCleanRun(t *testing.T) {
	cfg := quickCfg("stream", mcrtest.Mode(4, 4, 1))
	cfg.Resilience = &ResilienceConfig{DowngradeAfter: 1, Quarantine: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Resilience
	if rs == nil {
		t.Fatal("Resilience stats missing (policy implies the checker)")
	}
	if rs.ECCEvents != 0 || rs.Downgrades != 0 || rs.QuarantinedRows != 0 {
		t.Fatalf("clean run triggered the policy: %+v", rs)
	}
	if rs.MTBFMs != 0 || rs.FirstErrorMs != 0 {
		t.Fatalf("clean run has nonzero failure timing: %+v", rs)
	}
	if len(res.Integrity) != 0 {
		t.Fatalf("clean run violated retention: %v", res.Integrity[0])
	}
}

// TestResilienceConfigValidate rejects a negative threshold.
func TestResilienceConfigValidate(t *testing.T) {
	cfg := quickCfg("stream", mcrtest.Mode(4, 4, 1))
	cfg.Resilience = &ResilienceConfig{DowngradeAfter: -1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative DowngradeAfter must be rejected")
	}
}

// TestDisabledFaultConfigIsNoop: a non-nil zero-value fault config leaves
// the run byte-identical to Fault == nil — the determinism guarantee the
// sweep outputs rely on.
func TestDisabledFaultConfigIsNoop(t *testing.T) {
	base := quickCfg("stream", mcrtest.Mode(4, 4, 1))
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withZero := base
	withZero.Fault = &fault.Config{}
	r2, err := Run(withZero)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Integrity != nil {
		t.Fatal("zero-value fault config must not attach the checker")
	}
	if r1.ExecCPUCycles != r2.ExecCPUCycles || r1.MemCycles != r2.MemCycles ||
		r1.AvgReadLatencyNS != r2.AvgReadLatencyNS || r1.EDPNJs != r2.EDPNJs {
		t.Fatalf("zero-value fault config changed results: %+v vs %+v", r1, r2)
	}
}
