package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestResilienceStudy drives the full sweep at one workload with an
// aggressive injected fraction so every policy cell has work to do.
func TestResilienceStudy(t *testing.T) {
	opt := Options{Insts: 150_000, Seed: 1}
	rows, err := ResilienceStudy(opt, []string{"stream"}, []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // detect + degrade
		t.Fatalf("%d rows, want 2", len(rows))
	}
	var detect, degrade ResilienceRow
	for _, r := range rows {
		switch {
		case strings.HasSuffix(r.Config, "detect"):
			detect = r
		case strings.HasSuffix(r.Config, "degrade"):
			degrade = r
		default:
			t.Fatalf("unlabelled row %+v", r)
		}
	}
	if detect.ECCEvents == 0 {
		t.Fatal("aggressive injection produced no ECC events")
	}
	if detect.Downgrades != 0 || detect.QuarantinedRows != 0 {
		t.Fatalf("detect-only policy acted: %+v", detect)
	}
	if degrade.QuarantinedRows == 0 {
		t.Fatalf("degradation policy never quarantined: %+v", degrade)
	}
	if degrade.FinalMode == "" || detect.FinalMode == "" {
		t.Fatal("rows lack mode labels")
	}

	var buf bytes.Buffer
	if err := WriteResilience(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"resilience:", "ECC", "final mode", "slowdown%", "stream"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestResilienceStudyDefaults checks the default fraction grid shapes
// the plan (rows = workloads × fractions × 2 policies, detect first, then
// degrade, each on the fault-free [4/4x/100%reg] baseline) without
// running full-length simulations.
func TestResilienceStudyDefaults(t *testing.T) {
	cols := resilienceColumns(1, DefaultWeakFractions)
	if len(cols) != len(DefaultWeakFractions)*2 {
		t.Fatalf("%d columns, want %d", len(cols), len(DefaultWeakFractions)*2)
	}
	var cfgs []sim.Config
	for _, c := range cols {
		var cfg sim.Config
		c.change(&cfg)
		if cfg.Fault == nil || cfg.Fault.WeakFraction <= 0 || cfg.Fault.Seed != 1 || cfg.Resilience == nil {
			t.Fatalf("%s: bad fault config: %+v", c.label, cfg)
		}
		cfgs = append(cfgs, cfg)
	}
	if cfgs[1].Resilience.DowngradeAfter == 0 || cfgs[0].Resilience.DowngradeAfter != 0 {
		t.Fatal("policy grid misordered (detect first, then degrade)")
	}
	if cfgs[0].Fault == cfgs[1].Fault {
		t.Fatal("columns share one fault config")
	}
}
