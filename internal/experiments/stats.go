// Multi-seed statistics: the synthetic workloads are stochastic, so
// headline claims deserve error bars. RepeatedComparison re-runs a
// baseline/variant pair across seeds and summarizes the reductions.

package experiments

import (
	"fmt"
	"math"

	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/runplan"
)

// Summary is a mean-and-spread statistic over repeated runs.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min, Max float64
}

// summarize computes the statistic.
func summarize(vals []float64) Summary {
	s := Summary{N: len(vals)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		s.Mean += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Mean /= float64(s.N)
	for _, v := range vals {
		s.StdDev += (v - s.Mean) * (v - s.Mean)
	}
	if s.N > 1 {
		s.StdDev = math.Sqrt(s.StdDev / float64(s.N-1))
	} else {
		s.StdDev = 0
	}
	return s
}

// String renders "mean ± stddev [min, max] (n)".
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f [%.2f, %.2f] (n=%d)", s.Mean, s.StdDev, s.Min, s.Max, s.N)
}

// RepeatedComparison runs baseline vs the given MCR mode on one workload
// across `seeds` different seeds and returns the exec-time, read-latency
// and EDP reduction summaries.
func RepeatedComparison(o Options, workload string, mode mcr.Mode, seeds int) (exec, readlat, edp Summary, err error) {
	o = o.withDefaults()
	if seeds < 1 {
		return Summary{}, Summary{}, Summary{}, fmt.Errorf("experiments: need at least one seed, got %d", seeds)
	}
	// Each seed is a row: its own one-column study, so the baseline and
	// the column's label follow the seed.
	plan := &runplan.Plan{Name: "repeat"}
	for s := 0; s < seeds; s++ {
		opt := o
		opt.Seed = o.Seed + int64(s)*7919
		col := column{fmt.Sprintf("seed %d", opt.Seed), setMCR(mode, mech.AllToggles(), 0)}
		p, err := study{name: plan.Name, columns: func() ([]column, error) { return []column{col}, nil }}.plan(opt, []string{workload})
		if err != nil {
			return Summary{}, Summary{}, Summary{}, err
		}
		plan.Specs = append(plan.Specs, p.Specs...)
	}
	results, err := o.execute(plan)
	if err != nil {
		return Summary{}, Summary{}, Summary{}, err
	}
	var execs, lats, edps []float64
	for _, res := range results {
		r := reduce(res.Base, res.Run)
		execs = append(execs, r.ExecTime)
		lats = append(lats, r.ReadLatency)
		edps = append(edps, r.EDP)
	}
	return summarize(execs), summarize(lats), summarize(edps), nil
}
