package mech

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/timing"
)

// nuatConfig returns the single-core system with the NUAT backend.
func nuatConfig() Config {
	cfg := Config{
		Geom:   core.SingleCoreGeometry(),
		Mode:   mcr.Off(),
		Wiring: mcr.KtoN1K,
		Mech:   AllToggles(),
	}
	n := DefaultNUATConfig()
	cfg.NUAT = &n
	return cfg
}

// TestNUATBinsMonotone: fresher bins have lower or equal tRCD, the stalest
// bin stays at the DDR3 baseline floor.
func TestNUATBinsMonotone(t *testing.T) {
	s, err := newNUAT(nuatConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := timing.NewParams(timing.Baseline1x())
	prev := 0
	for i, p := range s.bins {
		if i > 0 && p.TRCD < prev {
			t.Fatalf("bin %d fresher than bin %d", i, i-1)
		}
		if p.TRCD > base.TRCD {
			t.Fatalf("bin %d slower than the baseline", i)
		}
		if p.TRAS != base.TRAS {
			t.Fatalf("NUAT must not touch tRAS (bin %d)", i)
		}
		prev = p.TRCD
	}
	if s.bins[0].TRCD >= base.TRCD {
		t.Fatal("the freshest bin must actually be faster")
	}
}
