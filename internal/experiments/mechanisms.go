// Fig 17 (mechanism ablation) and Fig 18 (EDP), plus the design-choice
// ablations DESIGN.md calls out (wiring, scheduler, row policy). All are
// declared as run plans and executed by the pooled executor.

package experiments

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/runplan"
	"repro/internal/sim"
)

// MechanismCase is one bar group of Fig 17.
type MechanismCase struct {
	Name string
	Mode mcr.Mode
	Mech dram.Mechanisms
}

// MechanismCases returns the paper's four cases at mode [100%reg], K=4:
// case 1 Early-Access only, case 2 +Early-Precharge, case 3 +Fast-Refresh,
// case 4 +Refresh-Skipping (which needs M < K to differ from case 3 —
// mode [2/4x]).
func MechanismCases() ([]MechanismCase, error) {
	full, err := mcr.NewMode(4, 4, 1)
	if err != nil {
		return nil, err
	}
	skip, err := mcr.NewMode(4, 2, 1)
	if err != nil {
		return nil, err
	}
	return []MechanismCase{
		{Name: "case1 EA", Mode: full, Mech: dram.Mechanisms{EarlyAccess: true}},
		{Name: "case2 EA+EP", Mode: full, Mech: dram.Mechanisms{EarlyAccess: true, EarlyPrecharge: true}},
		{Name: "case3 EA+EP+FR", Mode: full, Mech: dram.Mechanisms{EarlyAccess: true, EarlyPrecharge: true, FastRefresh: true}},
		{Name: "case4 EA+EP+FR+RS", Mode: skip, Mech: dram.AllMechanisms()},
	}, nil
}

// mechanismColumns are the Fig 17 configurations: the four mechanism
// cases.
func mechanismColumns() ([]column, error) {
	cases, err := MechanismCases()
	if err != nil {
		return nil, err
	}
	out := make([]column, len(cases))
	for i, mc := range cases {
		out[i] = column{label: mc.Name, mode: mc.Mode, mech: mc.Mech}
	}
	return out, nil
}

// Fig17 regenerates the mechanism ablation for the single-core workloads
// (multicore=false) or the quad-core mixes (multicore=true).
func Fig17(o Options, multicore bool, workloads []string) (*Sweep, error) {
	return runFigure(o, workloads, sweepFigure{"fig17", multicore, mechanismColumns})
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
		out = append(out, column{label: mode.String(), mode: mode, mech: dram.AllMechanisms()})
	}
	return out, nil
}

// Fig18 regenerates the EDP comparison for the single-core workloads
// (multicore=false) or the quad-core mixes (multicore=true).
func Fig18(o Options, multicore bool, workloads []string) (*Sweep, error) {
	return runFigure(o, workloads, sweepFigure{"fig18", multicore, edpColumns})
}

// variant is a labelled mutation of the shared per-workload configuration.
type variant struct {
	label string
	mut   func(*sim.Config)
}

// variantPlan declares one plan from per-workload variants: every variant
// of a workload shares that workload's memoized MCR-off baseline.
func variantPlan(o Options, figure string, workloads []string, mech dram.Mechanisms, mode mcr.Mode, variants []variant) *runplan.Plan {
	plan := &runplan.Plan{Name: figure}
	for _, w := range workloads {
		wl := []string{w}
		base := baseConfig(o, false, wl, mcr.Off(), dram.Mechanisms{}, 0, false)
		for _, v := range variants {
			cfg := baseConfig(o, false, wl, mode, mech, 0, false)
			v.mut(&cfg)
			plan.AddPair(w, v.label, cfg, base)
		}
	}
	return plan
}

// CombinedLayout compares the paper's Sec. 4.4 combination of 2x and 4x
// MCRs against the pure modes at matched capacity cost. The combined
// layout gangs 25% of rows as 4x and 25% as 2x (capacity overhead
// 0.25*3/4 + 0.25*1/2 = 31%), between pure [4/4x/50%reg] (37.5%) and pure
// [2/2x/50%reg] (25%).
func CombinedLayout(o Options, workloads []string) (*Sweep, error) {
	o = o.withDefaults()
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
	variants := []variant{
		{"pure [2/2x/50%reg]", func(c *sim.Config) {
			c.DRAM.Mode = pure2
			c.AllocRatio = 0.2
		}},
		{"pure [4/4x/50%reg]", func(c *sim.Config) {
			c.DRAM.Mode = pure4
			c.AllocRatio = 0.2
		}},
		{"combined 4x+2x", func(c *sim.Config) {
			c.DRAM.Mode = mcr.Off()
			c.DRAM.Layout = layout
			c.AllocRatio4, c.AllocRatio2 = 0.05, 0.15
		}},
	}
	return o.runSweep(variantPlan(o, "combined", workloads, dram.AllMechanisms(), mcr.Off(), variants))
}

// TLDRAMComparison races the two low-latency philosophies the paper's
// related-work section contrasts: MCR-DRAM (capacity trade, no bank
// change) against a TL-DRAM-like near/far split (full capacity, bank-array
// area overhead). Both get a 50% fast region and no profile allocation, so
// traffic lands on the fast rows in proportion to the region size and the
// comparison isolates the timing trade-offs.
func TLDRAMComparison(o Options, workloads []string) (*Sweep, error) {
	o = o.withDefaults()
	half2, err := mcr.NewMode(2, 2, 0.5)
	if err != nil {
		return nil, err
	}
	half4, err := mcr.NewMode(4, 4, 0.5)
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{"MCR [2/2x/50%reg]", func(c *sim.Config) {
			c.DRAM.Mode = half2
			c.DRAM.Mech = dram.AllMechanisms()
		}},
		{"MCR [4/4x/50%reg]", func(c *sim.Config) {
			c.DRAM.Mode = half4
			c.DRAM.Mech = dram.AllMechanisms()
		}},
		{"TL-DRAM-like 50% near", func(c *sim.Config) {
			tl := dram.DefaultTLConfig()
			c.DRAM.Mode = mcr.Off()
			c.DRAM.TL = &tl
		}},
		{"NUAT-like charge-aware", func(c *sim.Config) {
			n := dram.DefaultNUATConfig()
			c.DRAM.Mode = mcr.Off()
			c.DRAM.NUAT = &n
		}},
	}
	return o.runSweep(variantPlan(o, "tldram", workloads, dram.Mechanisms{}, mcr.Off(), variants))
}

// Ablation compares design choices on a fixed workload set under mode
// [4/4x/100%reg]. The returned sweep's configs are the variants.
type AblationKind int

// Supported ablations.
const (
	// AblationWiring compares K-to-N-1-K against K-to-K counter wiring.
	AblationWiring AblationKind = iota
	// AblationScheduler compares FR-FCFS against FCFS.
	AblationScheduler
	// AblationRowPolicy compares open-page against close-page.
	AblationRowPolicy
)

// Ablation runs one design-choice comparison over the given single-core
// workloads.
func Ablation(o Options, kind AblationKind, workloads []string) (*Sweep, error) {
	o = o.withDefaults()
	var variants []variant
	switch kind {
	case AblationWiring:
		variants = []variant{
			{"wiring K-to-N-1-K", func(c *sim.Config) { c.DRAM.Wiring = mcr.KtoN1K }},
			{"wiring K-to-K", func(c *sim.Config) { c.DRAM.Wiring = mcr.KtoK }},
		}
	case AblationScheduler:
		variants = []variant{
			{"FR-FCFS", func(c *sim.Config) { c.Ctrl.Scheduler = controller.FRFCFS }},
			{"FCFS", func(c *sim.Config) { c.Ctrl.Scheduler = controller.FCFS }},
		}
	case AblationRowPolicy:
		variants = []variant{
			{"open-page", func(c *sim.Config) { c.Ctrl.RowPolicy = controller.OpenPage }},
			{"close-page", func(c *sim.Config) { c.Ctrl.RowPolicy = controller.ClosePage }},
		}
	default:
		return nil, fmt.Errorf("experiments: unknown ablation kind %d", kind)
	}
	mode, err := mcr.NewMode(4, 4, 1)
	if err != nil {
		return nil, err
	}
	return o.runSweep(variantPlan(o, "ablation", workloads, dram.AllMechanisms(), mode, variants))
}
