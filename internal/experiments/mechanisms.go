// Fig 17 (mechanism ablation) and Fig 18 (EDP), plus the sweep extras:
// the Sec. 4.4 combined layout, the related-work comparisons (TL-DRAM,
// NUAT, CLR-DRAM) and the design-choice ablations DESIGN.md calls out
// (wiring, scheduler, row policy). All are studies: a per-workload
// baseline and labelled changes to it.

package experiments

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/sim"
)

// mechanismColumns are the Fig 17 configurations, the paper's four cases
// at mode [100%reg], K=4: case 1 Early-Access only, case 2
// +Early-Precharge, case 3 +Fast-Refresh, case 4 +Refresh-Skipping
// (which needs M < K to differ from case 3 — mode [2/4x]).
func mechanismColumns() ([]column, error) {
	full, err := mcr.NewMode(4, 4, 1)
	if err != nil {
		return nil, err
	}
	skip, err := mcr.NewMode(4, 2, 1)
	if err != nil {
		return nil, err
	}
	return []column{
		{"case1 EA", setMCR(full, dram.Mechanisms{EarlyAccess: true}, 0)},
		{"case2 EA+EP", setMCR(full, dram.Mechanisms{EarlyAccess: true, EarlyPrecharge: true}, 0)},
		{"case3 EA+EP+FR", setMCR(full, dram.Mechanisms{EarlyAccess: true, EarlyPrecharge: true, FastRefresh: true}, 0)},
		{"case4 EA+EP+FR+RS", setMCR(skip, dram.AllMechanisms(), 0)},
	}, nil
}

// Fig17 regenerates the mechanism ablation for the single-core workloads
// (multicore=false) or the quad-core mixes (multicore=true).
func Fig17(o Options, multicore bool, workloads []string) (*Sweep, error) {
	return runFigure(o, workloads, study{name: "fig17", multicore: multicore, columns: mechanismColumns})
}

// edpColumns are the Fig 18 configurations: modes [2/2x], [4/4x] and
// [2/4x] at 100%reg with all mechanisms on.
func edpColumns() ([]column, error) {
	var out []column
	for _, km := range [][2]int{{2, 2}, {4, 4}, {4, 2}} {
		mode, err := mcr.NewMode(km[0], km[1], 1)
		if err != nil {
			return nil, err
		}
		out = append(out, column{mode.String(), setMCR(mode, dram.AllMechanisms(), 0)})
	}
	return out, nil
}

// Fig18 regenerates the EDP comparison for the single-core workloads
// (multicore=false) or the quad-core mixes (multicore=true).
func Fig18(o Options, multicore bool, workloads []string) (*Sweep, error) {
	return runFigure(o, workloads, study{name: "fig18", multicore: multicore, columns: edpColumns})
}

// sweepExtras are the beyond-the-paper studies that render as a sweep,
// by the name reproduce -extra gives them. All run on single-core
// workloads against the MCR-off baseline.
var sweepExtras = map[string]study{
	// The paper's Sec. 4.4 combination of 2x and 4x MCRs against the pure
	// modes at matched capacity cost.
	"combined": {name: "combined", columns: combinedColumns},
	// MCR-DRAM (capacity trade, no bank change) against TL-DRAM-like and
	// NUAT-like backends.
	"tldram": {name: "tldram", columns: tldramColumns},
	// All four latency backends head to head; Shootout adds their
	// counters.
	"shootout": {name: "shootout", columns: shootoutColumns},
	// Design choices under mode [4/4x/100%reg] with all mechanisms.
	"wiring": {name: "ablation", columns: designColumns(
		column{"wiring K-to-N-1-K", func(c *sim.Config) { c.DRAM.Wiring = mcr.KtoN1K }},
		column{"wiring K-to-K", func(c *sim.Config) { c.DRAM.Wiring = mcr.KtoK }})},
	"scheduler": {name: "ablation", columns: designColumns(
		column{"FR-FCFS", func(c *sim.Config) { c.Ctrl.Scheduler = controller.FRFCFS }},
		column{"FCFS", func(c *sim.Config) { c.Ctrl.Scheduler = controller.FCFS }})},
	"rowpolicy": {name: "ablation", columns: designColumns(
		column{"open-page", func(c *sim.Config) { c.Ctrl.RowPolicy = controller.OpenPage }},
		column{"close-page", func(c *sim.Config) { c.Ctrl.RowPolicy = controller.ClosePage }})},
}

// SweepExtra runs the named sweep extra ("combined", "tldram",
// "shootout", "wiring", "scheduler" or "rowpolicy") over the given
// single-core workloads.
func SweepExtra(o Options, name string, workloads []string) (*Sweep, error) {
	s, ok := sweepExtras[name]
	if !ok {
		return nil, fmt.Errorf("experiments: %q is not a sweep extra", name)
	}
	return runFigure(o, workloads, s)
}

// The related-work backends at their default parameters: a 50% near
// segment (TL), 8 charge bins (NUAT), the representative coupling (CLR).
func withTL(c *sim.Config)   { tl := dram.DefaultTLConfig(); c.DRAM.TL = &tl }
func withNUAT(c *sim.Config) { n := dram.DefaultNUATConfig(); c.DRAM.NUAT = &n }
func withCLR(c *sim.Config)  { cl := dram.DefaultCLRConfig(); c.DRAM.CLR = &cl }

// combinedColumns gang 25% of rows as 4x and 25% as 2x (capacity
// overhead 0.25*3/4 + 0.25*1/2 = 31%), between pure [4/4x/50%reg]
// (37.5%) and pure [2/2x/50%reg] (25%); all mechanisms on.
func combinedColumns() ([]column, error) {
	layout, err := mcr.NewLayout(
		mcr.Band{K: 4, M: 4, Region: 0.25},
		mcr.Band{K: 2, M: 2, Region: 0.25},
	)
	if err != nil {
		return nil, err
	}
	pure2, err := mcr.NewMode(2, 2, 0.5)
	if err != nil {
		return nil, err
	}
	pure4, err := mcr.NewMode(4, 4, 0.5)
	if err != nil {
		return nil, err
	}
	return []column{
		{"pure [2/2x/50%reg]", setMCR(pure2, dram.AllMechanisms(), 0.2)},
		{"pure [4/4x/50%reg]", setMCR(pure4, dram.AllMechanisms(), 0.2)},
		{"combined 4x+2x", func(c *sim.Config) {
			c.DRAM.Mech = dram.AllMechanisms()
			c.DRAM.Layout = layout
			c.AllocRatio4, c.AllocRatio2 = 0.05, 0.15
		}},
	}, nil
}

// tldramColumns give every scheme a 50% fast region where the concept
// applies and no profile allocation, so traffic lands on the fast rows in
// proportion to the region size and the comparison isolates the timing
// trade-offs.
func tldramColumns() ([]column, error) {
	half2, err := mcr.NewMode(2, 2, 0.5)
	if err != nil {
		return nil, err
	}
	half4, err := mcr.NewMode(4, 4, 0.5)
	if err != nil {
		return nil, err
	}
	return []column{
		{"MCR [2/2x/50%reg]", setMCR(half2, dram.AllMechanisms(), 0)},
		{"MCR [4/4x/50%reg]", setMCR(half4, dram.AllMechanisms(), 0)},
		{"TL-DRAM-like 50% near", withTL},
		{"NUAT-like charge-aware", withNUAT},
	}, nil
}

// shootoutColumns race all four backends, each at its defaults and, where
// the concept applies, a 50% fast region; no profile allocation.
func shootoutColumns() ([]column, error) {
	half4, err := mcr.NewMode(4, 4, 0.5)
	if err != nil {
		return nil, err
	}
	return []column{
		{"MCR [4/4x/50%reg]", setMCR(half4, dram.AllMechanisms(), 0)},
		{"TL-DRAM-like", withTL},
		{"NUAT-like", withNUAT},
		{"CLR-DRAM-like", withCLR},
	}, nil
}

// designColumns are a design-choice ablation's columns: each choice on
// top of mode [4/4x/100%reg] with all mechanisms.
func designColumns(choices ...column) func() ([]column, error) {
	return func() ([]column, error) {
		mode, err := mcr.NewMode(4, 4, 1)
		if err != nil {
			return nil, err
		}
		on := setMCR(mode, dram.AllMechanisms(), 0)
		out := make([]column, len(choices))
		for i, ch := range choices {
			out[i] = column{ch.label, func(c *sim.Config) { on(c); ch.change(c) }}
		}
		return out, nil
	}
}
