package experiments

import (
	"bytes"
	"strings"
	"testing"
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
// the plan (rows = workloads × fractions × 2 policies) without running
// full-length simulations.
func TestResilienceStudyDefaults(t *testing.T) {
	cells := resilienceCells(1, DefaultWeakFractions)
	if len(cells) != len(DefaultWeakFractions)*2 {
		t.Fatalf("%d cells, want %d", len(cells), len(DefaultWeakFractions)*2)
	}
	for _, c := range cells {
		if c.faults.WeakFraction <= 0 || c.faults.Seed != 1 {
			t.Fatalf("bad cell fault config: %+v", c.faults)
		}
	}
	if cells[1].policy.DowngradeAfter == 0 || cells[0].policy.DowngradeAfter != 0 {
		t.Fatal("policy grid misordered (detect first, then degrade)")
	}
}
