// The mechanism shootout: every pluggable latency backend — MCR-DRAM and
// the three related-work comparators (TL-DRAM, NUAT, CLR-DRAM) — raced
// head-to-head over one workload set, one power model and one shared
// per-workload conventional baseline. Beyond the reduction sweep, the
// shootout surfaces each backend's own counters (conversions, reversions)
// so the dynamic mechanism's adaptation cost is visible next to its
// speedup.

package experiments

import "repro/internal/mech"

// ShootoutMech aggregates one variant's backend counters over the whole
// workload set.
type ShootoutMech struct {
	// Config is the variant label (sweep column); Mechanism is the backend
	// name the devices reported ("mcr", "tldram", "nuat", "clr").
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

// Shootout runs the "shootout" sweep extra (shootoutColumns) and sums
// each backend's counters over the workloads.
func Shootout(o Options, workloads []string) (*ShootoutResult, error) {
	o = o.withDefaults()
	plan, err := sweepExtras["shootout"].plan(o, workloads)
	if err != nil {
		return nil, err
	}
	sweeps, results, err := o.runSweeps(plan)
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
