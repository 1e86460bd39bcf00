// Beyond-the-paper resilience study: seeded fault injection at the most
// aggressive MCR mode, sweeping the injected weak-cell fraction against
// two policies — detect-only (count ECC events, never intervene) and
// graceful degradation (quarantine failing gangs, step the governor
// ladder toward safer modes). Each cell is compared against the
// fault-free run of the same mode, so the table shows what reliability
// costs: ECC events absorbed, rows quarantined, mode downgrades taken
// and the execution-time price paid for them.

package experiments

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/sim"
)

// DefaultWeakFractions is the injected weak-cell population sweep.
var DefaultWeakFractions = []float64{1e-4, 1e-3, 1e-2}

// ResilienceRow is one cell of the resilience study.
type ResilienceRow struct {
	Workload string
	Config   string
	// ECCEvents/QuarantinedRows/Downgrades summarize the policy's work;
	// FinalMode is the device mode at end of run (degradation may have
	// stepped it down from [4/4x/100%reg]).
	ECCEvents       int
	QuarantinedRows int
	Downgrades      int
	FinalMode       string
	// MTBFMs is the observed mean time between failures (0 when clean).
	MTBFMs float64
	// SlowdownPct is the execution-time cost versus the fault-free run
	// of the same mode (positive = slower).
	SlowdownPct float64
}

// resilienceColumns are the per-workload policy × weak-fraction grid:
// detect-only, then graceful degradation, at each injected fraction.
func resilienceColumns(seed int64, fractions []float64) []column {
	var cols []column
	for _, wf := range fractions {
		fc := fault.Config{
			Seed:         seed,
			WeakFraction: wf,
			// Compressed retention tails so weak rows observably fail
			// within simulation-sized runs (see internal/fault).
			TailMinFrac: 0.0005,
			TailMaxFrac: 0.005,
		}
		for _, p := range []struct {
			name   string
			policy sim.ResilienceConfig
		}{{"detect", sim.ResilienceConfig{}}, {"degrade", sim.ResilienceConfig{DowngradeAfter: 4, Quarantine: true}}} {
			cols = append(cols, column{fmt.Sprintf("weak %.0e %s", wf, p.name), func(c *sim.Config) {
				f, pol := fc, p.policy
				c.Fault, c.Resilience = &f, &pol
			}})
		}
	}
	return cols
}

// ResilienceStudy sweeps injected weak-cell fractions × resilience
// policies at mode [4/4x/100%reg], each compared against the fault-free
// run of that mode with all mechanisms. A nil fractions selects
// DefaultWeakFractions. Under Options.KeepGoing, rows of failed cells
// are omitted and the joined per-cell errors are returned alongside the
// surviving rows.
func ResilienceStudy(o Options, workloads []string, fractions []float64) ([]ResilienceRow, error) {
	o = o.withDefaults()
	if fractions == nil {
		fractions = DefaultWeakFractions
	}
	mode, err := mcr.NewMode(4, 4, 1)
	if err != nil {
		return nil, err
	}
	plan, err := study{
		name:     "resilience",
		columns:  func() ([]column, error) { return resilienceColumns(o.Seed, fractions), nil },
		baseline: setMCR(mode, mech.AllToggles(), 0),
	}.plan(o, workloads)
	if err != nil {
		return nil, err
	}
	results, execErr := o.execute(plan)
	var rows []ResilienceRow
	for _, r := range results {
		if r.Run == nil {
			continue // failed under KeepGoing; reported via execErr
		}
		row := ResilienceRow{
			Workload:    r.Workload,
			Config:      r.Config,
			SlowdownPct: -reduce(r.Base, r.Run).ExecTime,
		}
		if rs := r.Run.Resilience; rs != nil {
			row.ECCEvents = rs.ECCEvents
			row.QuarantinedRows = rs.QuarantinedRows
			row.Downgrades = rs.Downgrades
			row.FinalMode = rs.FinalMode
			row.MTBFMs = rs.MTBFMs
		}
		rows = append(rows, row)
	}
	if execErr != nil && rows == nil {
		return nil, execErr
	}
	return rows, execErr
}

// WriteResilience renders the study as an aligned text table.
func WriteResilience(w io.Writer, rows []ResilienceRow) error {
	if _, err := fmt.Fprintln(w, "resilience: seeded fault injection at mode [4/4x/100%reg]"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s %-22s %6s %6s %7s %-22s %9s %10s\n",
		"workload", "config", "ECC", "quar", "downgr", "final mode", "MTBF ms", "slowdown%"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-12s %-22s %6d %6d %7d %-22s %9.3f %10.2f\n",
			r.Workload, r.Config, r.ECCEvents, r.QuarantinedRows, r.Downgrades,
			r.FinalMode, r.MTBFMs, r.SlowdownPct); err != nil {
			return err
		}
	}
	return nil
}
