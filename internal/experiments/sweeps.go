// The figure sweeps: MCR-ratio sensitivity (Figs 11/14), profile-based
// allocation (Figs 12/15), MCR-mode analysis (Figs 13/16), the mechanism
// ablation (Fig 17) and the EDP comparison (Fig 18).
//
// Every sweep is a study (below) expressed as data — a runplan.Plan of
// (workload, config) cells — and executed by the pooled runplan.Executor,
// which simulates each distinct configuration once per Execute: the
// per-workload baseline once however many cells compare against it.
// Figures declares several figures' plans as one union plan, so a
// configuration two figures share (the baseline, Fig 11's [4/4x] ratio
// 1.00 = Fig 17's case 2, …) is simulated once for all of them.

package experiments

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/runplan"
	"repro/internal/sim"
)

// SweepPoint is one (workload/mix, configuration) cell of a figure.
type SweepPoint struct {
	Workload string
	Config   string // figure-specific label, e.g. "[4/4x] ratio 1.0"
	Reduction
}

// Sweep is one regenerated figure: its points plus per-configuration means
// (the "avg" bars of the paper's plots).
type Sweep struct {
	Figure  string
	Points  []SweepPoint
	Average map[string]Reduction
	// Traces holds one labelled event-trace group per variant run when
	// Options.TraceCap was positive; export all of them into one Chrome
	// trace_event file with obs.WriteChromeGroups.
	Traces []obs.TraceGroup
}

// averageByConfig fills Sweep.Average.
func (s *Sweep) averageByConfig() {
	byCfg := map[string][]Reduction{}
	var order []string
	for _, p := range s.Points {
		if _, ok := byCfg[p.Config]; !ok {
			order = append(order, p.Config)
		}
		byCfg[p.Config] = append(byCfg[p.Config], p.Reduction)
	}
	s.Average = make(map[string]Reduction, len(order))
	for _, cfg := range order {
		s.Average[cfg] = mean(byCfg[cfg])
	}
}

// figSets adapts the workload sets a study runs on: the given
// single-core workloads, or the 16 quad-core mixes truncated to
// o.MaxMixes when set.
func figSets(o Options, multicore bool, workloads []string) ([][]string, []string) {
	if !multicore {
		sets := make([][]string, len(workloads))
		for i, n := range workloads {
			sets[i] = []string{n}
		}
		return sets, workloads
	}
	mixes := MultiCoreMixes()
	if o.MaxMixes > 0 && o.MaxMixes < len(mixes) {
		mixes = mixes[:o.MaxMixes]
	}
	names := make([]string, len(mixes))
	for i, m := range mixes {
		names[i] = MixName(i, m)
	}
	return mixes, names
}

// study declares one experiment: the workload sets it runs on and, per
// set, a baseline configuration and labelled changes, each applied to a
// copy of that baseline. Every figure sweep, every sweep extra and the
// resilience and repeat studies are studies.
type study struct {
	name      string
	multicore bool
	columns   func() ([]column, error)
	// baseline turns the MCR-off configuration of a set into the one its
	// columns change and are compared against; nil keeps it.
	baseline func(*sim.Config)
}

// column is one configuration of a study: its label and the change that
// turns a set's baseline into it.
type column struct {
	label  string
	change func(*sim.Config)
}

// setMCR switches MCR on: the mode, the mechanisms and the profile-based
// allocation ratio (0 = none).
func setMCR(mode mcr.Mode, mech dram.Mechanisms, alloc float64) func(*sim.Config) {
	return func(c *sim.Config) { c.DRAM.Mode, c.DRAM.Mech, c.AllocRatio = mode, mech, alloc }
}

// paperSweeps maps each sweep figure of the paper to its sweeps. Figs 17
// and 18 run on the single-core workloads, then on the quad-core mixes.
var paperSweeps = map[int][]study{
	11: {{name: "fig11", columns: ratioColumns}},
	12: {{name: "fig12", columns: allocColumns}},
	13: {{name: "fig13", columns: modeColumns}},
	14: {{name: "fig14", multicore: true, columns: ratioColumns}},
	15: {{name: "fig15", multicore: true, columns: allocColumns}},
	16: {{name: "fig16", multicore: true, columns: modeColumns}},
	17: {{name: "fig17", columns: mechanismColumns}, {name: "fig17", multicore: true, columns: mechanismColumns}},
	18: {{name: "fig18", columns: edpColumns}, {name: "fig18", multicore: true, columns: edpColumns}},
}

// ratioColumns are the Fig 11/14 configurations: modes [2/2x] and [4/4x]
// at MCR-to-total-row ratios 0.25, 0.5 and 1.0, with Early-Access and
// Early-Precharge only.
func ratioColumns() ([]column, error) {
	var out []column
	for _, k := range []int{2, 4} {
		for _, ratio := range []float64{0.25, 0.5, 1.0} {
			mode, err := mcr.NewMode(k, k, ratio)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("[%d/%dx] ratio %.2f", k, k, ratio)
			out = append(out, column{label, setMCR(mode, dram.Mechanisms{EarlyAccess: true, EarlyPrecharge: true}, 0)})
		}
	}
	return out, nil
}

// allocColumns are the Fig 12/15 configurations: mode [4/4x/50%reg] with
// profile-based page allocation at 10/20/30%.
func allocColumns() ([]column, error) {
	mode, err := mcr.NewMode(4, 4, 0.5)
	if err != nil {
		return nil, err
	}
	var out []column
	for _, ratio := range []float64{0.1, 0.2, 0.3} {
		out = append(out, column{fmt.Sprintf("alloc %.0f%%", ratio*100), setMCR(mode, dram.AllMechanisms(), ratio)})
	}
	return out, nil
}

// modeColumns are the Fig 13/16 configurations: every M/Kx mode at region
// 25/50/75%, with 10% allocation and all mechanisms.
func modeColumns() ([]column, error) {
	var out []column
	for _, km := range [][2]int{{2, 2}, {2, 1}, {4, 4}, {4, 2}, {4, 1}} {
		for _, reg := range []float64{0.25, 0.5, 0.75} {
			mode, err := mcr.NewMode(km[0], km[1], reg)
			if err != nil {
				return nil, err
			}
			out = append(out, column{mode.String(), setMCR(mode, dram.AllMechanisms(), 0.1)})
		}
	}
	return out, nil
}

// plan declares the study: every workload set × column cell, the column's
// change applied to a copy of the set's baseline and compared against it.
func (f study) plan(o Options, workloads []string) (*runplan.Plan, error) {
	cols, err := f.columns()
	if err != nil {
		return nil, err
	}
	sets, names := figSets(o, f.multicore, workloads)
	plan := &runplan.Plan{Name: f.name, Specs: make([]runplan.Spec, 0, len(sets)*len(cols))}
	for wi, wl := range sets {
		base := baseConfig(o, f.multicore, wl)
		if f.baseline != nil {
			f.baseline(&base)
		}
		for _, c := range cols {
			cfg := base
			c.change(&cfg)
			plan.AddPair(names[wi], c.label, cfg, base)
		}
	}
	return plan, nil
}

// Figures regenerates the given sweep figures (11-18) as one plan: every
// distinct configuration is simulated once, however many of the figures
// ask for it. It returns each figure's sweeps in request order — one per
// figure, two for Figs 17 and 18 (single-core, then quad-core). Under
// Options.KeepGoing the partial sweeps come back with the joined errors.
func Figures(o Options, workloads []string, figs ...int) ([][]*Sweep, error) {
	var all []study
	for _, f := range figs {
		sf, ok := paperSweeps[f]
		if !ok {
			return nil, fmt.Errorf("experiments: figure %d is not a sweep (valid: 11-18)", f)
		}
		all = append(all, sf...)
	}
	sweeps, err := runFigures(o, workloads, all...)
	if sweeps == nil {
		return nil, err
	}
	out := make([][]*Sweep, len(figs))
	for i, f := range figs {
		n := len(paperSweeps[f])
		out[i], sweeps = sweeps[:n], sweeps[n:]
	}
	return out, err
}

// runFigures builds the figures' plans and runs them as one.
func runFigures(o Options, workloads []string, figs ...study) ([]*Sweep, error) {
	o = o.withDefaults()
	plans := make([]*runplan.Plan, len(figs))
	for i, f := range figs {
		plan, err := f.plan(o, workloads)
		if err != nil {
			return nil, err
		}
		plans[i] = plan
	}
	sweeps, _, err := o.runSweeps(plans...)
	return sweeps, err
}

// runFigure runs one figure sweep.
func runFigure(o Options, workloads []string, f study) (*Sweep, error) {
	sweeps, err := runFigures(o, workloads, f)
	if sweeps == nil {
		return nil, err
	}
	return sweeps[0], err
}

// Fig11 regenerates the single-core MCR-ratio sensitivity figure.
func Fig11(o Options, workloads []string) (*Sweep, error) {
	return runFigure(o, workloads, paperSweeps[11][0])
}

// Fig12 regenerates the single-core profile-allocation figure.
func Fig12(o Options, workloads []string) (*Sweep, error) {
	return runFigure(o, workloads, paperSweeps[12][0])
}

// Fig13 regenerates the single-core MCR-mode analysis.
func Fig13(o Options, workloads []string) (*Sweep, error) {
	return runFigure(o, workloads, paperSweeps[13][0])
}

// Fig14 regenerates the multi-core MCR-ratio sensitivity figure.
func Fig14(o Options) (*Sweep, error) { return runFigure(o, nil, paperSweeps[14][0]) }

// Fig15 regenerates the multi-core profile-allocation figure.
func Fig15(o Options) (*Sweep, error) { return runFigure(o, nil, paperSweeps[15][0]) }

// Fig16 regenerates the multi-core MCR-mode analysis.
func Fig16(o Options) (*Sweep, error) { return runFigure(o, nil, paperSweeps[16][0]) }
