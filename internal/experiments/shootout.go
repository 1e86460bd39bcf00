// The mechanism shootout: every pluggable latency backend — MCR-DRAM and
// the four related-work comparators (TL-DRAM, NUAT, CROW, CLR-DRAM) —
// raced head-to-head over one workload set, one power model and one
// shared per-workload conventional baseline. Beyond the reduction sweep,
// the shootout surfaces each backend's own counters (copies, conversions,
// reversions) so the dynamic mechanisms' adaptation cost is visible next
// to their speedup.

package experiments

import (
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/sim"
)

// ShootoutMech aggregates one variant's backend counters over the whole
// workload set.
type ShootoutMech struct {
	// Config is the variant label (sweep column); Mechanism is the backend
	// name the devices reported ("mcr", "tldram", "nuat", "crow", "clr").
	Config    string
	Mechanism string
	// Stats sums the backend counters over all workloads; Runs is how many
	// simulations contributed.
	Stats mech.Stats
	Runs  int
}

// ShootoutResult is the head-to-head comparison: the reduction sweep plus
// the per-mechanism counter aggregation (variant order).
type ShootoutResult struct {
	Sweep *Sweep
	Mechs []ShootoutMech
}

// Shootout races all five mechanism backends over the given single-core
// workloads. Every backend gets a 50% fast region where the concept
// applies (MCR region, TL near segment) and its default parameters
// otherwise; no profile allocation, so traffic lands on fast rows in
// proportion to region size and the comparison isolates each mechanism's
// timing trade-offs under identical traffic and energy accounting.
func Shootout(o Options, workloads []string) (*ShootoutResult, error) {
	o = o.withDefaults()
	half4, err := mcr.NewMode(4, 4, 0.5)
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{"MCR [4/4x/50%reg]", func(c *sim.Config) {
			c.DRAM.Mode = half4
			c.DRAM.Mech = dram.AllMechanisms()
		}},
		{"TL-DRAM-like", func(c *sim.Config) {
			tl := dram.DefaultTLConfig()
			c.DRAM.Mode = mcr.Off()
			c.DRAM.TL = &tl
		}},
		{"NUAT-like", func(c *sim.Config) {
			n := dram.DefaultNUATConfig()
			c.DRAM.Mode = mcr.Off()
			c.DRAM.NUAT = &n
		}},
		{"CROW-like", func(c *sim.Config) {
			cr := dram.DefaultCROWConfig()
			c.DRAM.Mode = mcr.Off()
			c.DRAM.CROW = &cr
		}},
		{"CLR-DRAM-like", func(c *sim.Config) {
			cl := dram.DefaultCLRConfig()
			c.DRAM.Mode = mcr.Off()
			c.DRAM.CLR = &cl
		}},
	}
	sweeps, results, err := o.runSweeps(variantPlan(o, "shootout", workloads, dram.Mechanisms{}, mcr.Off(), variants))
	if sweeps == nil {
		return nil, err
	}
	out := &ShootoutResult{Sweep: sweeps[0]}
	agg := map[string]*ShootoutMech{}
	var order []string
	for _, r := range results {
		if r.Run == nil {
			continue // failed under KeepGoing; reported via err
		}
		m := agg[r.Config]
		if m == nil {
			m = &ShootoutMech{Config: r.Config, Mechanism: r.Run.Mechanism}
			agg[r.Config] = m
			order = append(order, r.Config)
		}
		if s := r.Run.MechStats; s != nil {
			m.Stats.FastActivates += s.FastActivates
			m.Stats.Copies += s.Copies
			m.Stats.CopyCycles += s.CopyCycles
			m.Stats.Conversions += s.Conversions
			m.Stats.Reversions += s.Reversions
			m.Stats.CapacityLossRows += s.CapacityLossRows
		}
		m.Runs++
	}
	for _, label := range order {
		out.Mechs = append(out.Mechs, *agg[label])
	}
	return out, err
}
