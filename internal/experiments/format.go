// Plain-text rendering of the regenerated figures, paper-style.

package experiments

import (
	"fmt"
	"io"
)

// WriteSweep renders a sweep as an aligned text table: one row per
// workload, one column group per configuration, followed by the averages.
func WriteSweep(w io.Writer, s *Sweep, metric string) error {
	configs := configOrder(s)
	if _, err := fmt.Fprintf(w, "%s (%s reduction %%)\n", s.Figure, metric); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s", "workload"); err != nil {
		return err
	}
	for _, c := range configs {
		if _, err := fmt.Fprintf(w, " %20s", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	byWorkload := map[string]map[string]Reduction{}
	var order []string
	for _, p := range s.Points {
		if _, ok := byWorkload[p.Workload]; !ok {
			order = append(order, p.Workload)
			byWorkload[p.Workload] = map[string]Reduction{}
		}
		byWorkload[p.Workload][p.Config] = p.Reduction
	}
	pick := func(r Reduction) float64 {
		switch metric {
		case "readlat":
			return r.ReadLatency
		case "edp":
			return r.EDP
		default:
			return r.ExecTime
		}
	}
	for _, wl := range order {
		if _, err := fmt.Fprintf(w, "%-12s", wl); err != nil {
			return err
		}
		for _, c := range configs {
			if _, err := fmt.Fprintf(w, " %20.2f", pick(byWorkload[wl][c])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-12s", "AVG"); err != nil {
		return err
	}
	for _, c := range configs {
		if _, err := fmt.Fprintf(w, " %20.2f", pick(s.Average[c])); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// configOrder returns the configurations in first-appearance order.
func configOrder(s *Sweep) []string {
	seen := map[string]bool{}
	var order []string
	for _, p := range s.Points {
		if !seen[p.Config] {
			seen[p.Config] = true
			order = append(order, p.Config)
		}
	}
	return order
}

// WriteTable3 renders the Table 3 comparison.
func WriteTable3(w io.Writer, rows []Table3Row) error {
	if _, err := fmt.Fprintln(w, "Table 3: timing constraints (paper | circuit-derived)"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-6s %-22s %-22s %-24s\n", "mode", "tRCD ns", "tRAS ns", "tRFC ns (1Gb/4Gb, paper)"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d/%dx   %6.2f | %6.2f (%+5.1f%%) %6.2f | %6.2f (%+5.1f%%) %7.2f / %7.2f\n",
			r.M, r.K,
			r.Paper.TRCDNS, r.Derived.TRCDNS, r.TRCDDevPct,
			r.Paper.TRASNS, r.Derived.TRASNS, r.TRASDevPct,
			r.Paper.TRFC1Gb, r.Paper.TRFC4Gb); err != nil {
			return err
		}
	}
	return nil
}

// WriteFig8 renders the wiring comparison table.
func WriteFig8(w io.Writer, rows []Fig8Row) error {
	if _, err := fmt.Fprintln(w, "Fig 8: worst-case refresh interval per MCR (ms)"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-4s %12s %12s %12s %12s\n", "K", "KtoK(3b)", "KtoN1K(3b)", "KtoK(13b)", "KtoN1K(13b)"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-4d %12.2f %12.2f %12.3f %12.3f\n", r.K, r.KtoK3Bit, r.KtoN1K3Bit, r.KtoK13Bit, r.KtoN1K13Bit); err != nil {
			return err
		}
	}
	return nil
}

// WriteShootout renders the mechanism head-to-head: the execution-time
// and EDP reduction tables, then one line per backend with its speedup
// summary and its own adaptation counters.
func WriteShootout(w io.Writer, r *ShootoutResult) error {
	if err := WriteSweep(w, r.Sweep, "exec"); err != nil {
		return err
	}
	if err := WriteSweep(w, r.Sweep, "edp"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "per-mechanism summary (counters summed over workloads)"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-20s %-8s %10s %10s %10s %10s %10s %12s\n",
		"config", "backend", "exec%", "edp%", "fastActs", "converts", "reverts", "capLossRows"); err != nil {
		return err
	}
	for _, m := range r.Mechs {
		avg := r.Sweep.Average[m.Config]
		if _, err := fmt.Fprintf(w, "%-20s %-8s %10.2f %10.2f %10d %10d %10d %12d\n",
			m.Config, m.Mechanism, avg.ExecTime, avg.EDP,
			m.Stats.FastActivates, m.Stats.Conversions,
			m.Stats.Reversions, m.Stats.CapacityLossRows); err != nil {
			return err
		}
	}
	return nil
}
