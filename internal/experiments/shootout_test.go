package experiments

import (
	"strings"
	"testing"
)

// TestShootoutRacesAllBackends: the head-to-head covers all four
// mechanisms, every variant reduces against the shared baseline, and the
// dynamic backends report their adaptation counters.
func TestShootoutRacesAllBackends(t *testing.T) {
	r, err := Shootout(fastOpts(), []string{"stream"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Mechs); got != 4 {
		t.Fatalf("shootout raced %d mechanisms, want 4", got)
	}
	wantBackends := map[string]bool{"mcr": false, "tldram": false, "nuat": false, "clr": false}
	for _, m := range r.Mechs {
		if _, ok := wantBackends[m.Mechanism]; !ok {
			t.Errorf("unexpected backend %q (config %q)", m.Mechanism, m.Config)
			continue
		}
		wantBackends[m.Mechanism] = true
		if m.Runs != 1 {
			t.Errorf("%s: %d runs, want 1", m.Mechanism, m.Runs)
		}
	}
	for name, seen := range wantBackends {
		if !seen {
			t.Errorf("backend %s missing from the shootout", name)
		}
	}
	if got := len(r.Sweep.Points); got != 4 {
		t.Fatalf("sweep has %d points, want 4", got)
	}
	for _, m := range r.Mechs {
		switch m.Mechanism {
		case "clr":
			if m.Stats.Conversions == 0 {
				t.Error("CLR converted no row pairs on a streaming workload")
			}
			if m.Stats.CapacityLossRows != m.Stats.Conversions {
				t.Errorf("CLR capacity loss %d != conversions %d", m.Stats.CapacityLossRows, m.Stats.Conversions)
			}
		case "mcr", "tldram":
			if m.Stats.FastActivates == 0 {
				t.Errorf("%s served no fast activates", m.Mechanism)
			}
		}
	}
}

// TestWriteShootout: the rendering names every backend and the counter
// columns.
func TestWriteShootout(t *testing.T) {
	r, err := Shootout(fastOpts(), []string{"comm2"})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteShootout(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"shootout", "mcr", "tldram", "nuat", "clr", "converts", "capLossRows"} {
		if !strings.Contains(out, want) {
			t.Errorf("shootout rendering missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "copies") {
		t.Errorf("shootout rendering still has the copies column:\n%s", out)
	}
}
