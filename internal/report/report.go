// Package report renders simulation results as human-readable run reports
// (in the spirit of USIMM's end-of-run dump): system summary, per-core
// table, memory-system counters, latency distribution and the energy
// breakdown.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Write renders a full run report.
func Write(w io.Writer, cfg sim.Config, res *sim.Result) error {
	var b strings.Builder

	fmt.Fprintf(&b, "==== MCR-DRAM simulation report ====\n")
	layout := cfg.DRAM.EffectiveLayout()
	if layout.Enabled() {
		if cfg.DRAM.Layout.Enabled() {
			fmt.Fprintf(&b, "configuration : %v\n", cfg.DRAM.Layout)
		} else {
			fmt.Fprintf(&b, "configuration : %v\n", cfg.DRAM.Mode)
		}
	} else {
		fmt.Fprintf(&b, "configuration : conventional DRAM (MCR off)\n")
	}
	g := cfg.DRAM.Geom
	fmt.Fprintf(&b, "geometry      : %d ch x %d ranks x %d banks x %d rows (%.1f GB)\n",
		g.Channels, g.Ranks, g.Banks, g.Rows, float64(g.TotalBytes())/(1<<30))
	fmt.Fprintf(&b, "mechanisms    : EA=%v EP=%v FR=%v RS=%v wiring=%v\n",
		cfg.DRAM.Mech.EarlyAccess, cfg.DRAM.Mech.EarlyPrecharge,
		cfg.DRAM.Mech.FastRefresh, cfg.DRAM.Mech.RefreshSkipping, cfg.DRAM.Wiring)

	fmt.Fprintf(&b, "\n-- performance --\n")
	fmt.Fprintf(&b, "execution time     : %d CPU cycles (%.3f ms)\n",
		res.ExecCPUCycles, float64(res.ExecCPUCycles)/float64(core.CPUClockMHz)/1000)
	fmt.Fprintf(&b, "aggregate IPC      : %.3f\n", res.IPC)
	fmt.Fprintf(&b, "reads / avg latency: %d / %.1f ns", res.ReadCount, res.AvgReadLatencyNS)
	if res.Latency != nil && res.Latency.Total() > 0 {
		fmt.Fprintf(&b, " (p50 %.0f, p95 %.0f, p99 %.0f)",
			res.Latency.Percentile(50), res.Latency.Percentile(95), res.Latency.Percentile(99))
	}
	b.WriteByte('\n')

	if len(res.Cores) > 0 {
		fmt.Fprintf(&b, "\n-- cores --\n")
		fmt.Fprintf(&b, "%-4s %-12s %10s %8s %10s %10s %10s\n",
			"id", "workload", "retired", "IPC", "reads", "writes", "stalls")
		for _, c := range res.Cores {
			fmt.Fprintf(&b, "%-4d %-12s %10d %8.3f %10d %10d %10d\n",
				c.CoreID, c.Workload, c.Retired, c.IPC, c.ReadsIssued, c.WritesIssued, c.FetchStalls)
		}
	}

	fmt.Fprintf(&b, "\n-- memory system --\n")
	hits, misses := res.Ctrl.RowHits, res.Ctrl.RowMisses
	total := hits + misses
	rate := 0.0
	if total > 0 {
		rate = float64(hits) / float64(total) * 100
	}
	fmt.Fprintf(&b, "row buffer         : %d hits, %d misses (%.1f%% hit rate), %d conflicts\n",
		hits, misses, rate, res.Ctrl.RowConflicts)
	fmt.Fprintf(&b, "activates          : %d (%d to MCRs)\n", res.Dev.Activates, res.Dev.MCRActivates)
	fmt.Fprintf(&b, "refreshes          : %d issued (%d Fast-Refresh), %d skipped, %d forced\n",
		res.Dev.Refreshes, res.Dev.MCRRefreshes, res.Dev.SkippedRefreshes, res.Ctrl.ForcedRefreshes)
	fmt.Fprintf(&b, "MCR request share  : %.1f%%\n", res.MCRRequestFraction*100)

	if res.Mechanism != "" {
		fmt.Fprintf(&b, "\n-- mechanism --\n")
		fmt.Fprintf(&b, "backend            : %s\n", res.Mechanism)
		if ms := res.MechStats; ms != nil {
			fmt.Fprintf(&b, "fast activates     : %d\n", ms.FastActivates)
			if ms.Conversions > 0 {
				fmt.Fprintf(&b, "row conversions    : %d (%d cycles of conversion overhead)\n", ms.Conversions, ms.CopyCycles)
			}
			if ms.Reversions > 0 {
				fmt.Fprintf(&b, "reversions         : %d\n", ms.Reversions)
			}
			if ms.CapacityLossRows > 0 {
				fmt.Fprintf(&b, "capacity loss      : %d rows\n", ms.CapacityLossRows)
			}
		}
	}

	if o := res.Obs; o != nil {
		fmt.Fprintf(&b, "\n-- observability --\n")
		fmt.Fprintf(&b, "commands           : ACT %d  PRE %d  RD %d  WR %d  REF %d\n",
			o.Commands["ACT"], o.Commands["PRE"], o.Commands["RD"], o.Commands["WR"], o.Commands["REF"])
		stallTotal := o.Stall.Total()
		fmt.Fprintf(&b, "stall attribution  : %d reads, %d cycles total\n", o.Reads, stallTotal)
		for c := obs.StallComponent(0); c < obs.NumStallComponents; c++ {
			pctOf := 0.0
			if stallTotal > 0 {
				pctOf = float64(o.Stall[c]) / float64(stallTotal) * 100
			}
			fmt.Fprintf(&b, "  %-15s: %12d cycles (%5.1f%%)\n", c, o.Stall[c], pctOf)
		}
		fmt.Fprintf(&b, "refresh debt peak  : %d intervals\n", o.RefreshDebtPeak)
		if o.EngineSteppedCycles+o.EngineSkippedCycles > 0 {
			fmt.Fprintf(&b, "engine             : %d stepped + %d skipped cycles (%.1f%% skipped)\n",
				o.EngineSteppedCycles, o.EngineSkippedCycles, o.SkipRatio()*100)
		}
		if o.ModeChanges+o.QuarantinedRows+o.Violations > 0 {
			fmt.Fprintf(&b, "resilience events  : %d mode changes, %d quarantined rows, %d violations\n",
				o.ModeChanges, o.QuarantinedRows, o.Violations)
		}
	}

	fmt.Fprintf(&b, "\n-- energy --\n")
	e := res.Energy
	fmt.Fprintf(&b, "total   : %10.1f uJ\n", e.TotalNJ()/1e3)
	fmt.Fprintf(&b, "activate: %10.1f uJ\n", e.ActivateNJ/1e3)
	fmt.Fprintf(&b, "rd/wr   : %10.1f uJ\n", e.ReadWriteNJ/1e3)
	fmt.Fprintf(&b, "refresh : %10.1f uJ\n", e.RefreshNJ/1e3)
	fmt.Fprintf(&b, "bkgnd   : %10.1f uJ\n", e.BackgroundNJ/1e3)
	fmt.Fprintf(&b, "EDP     : %10.3f nJ*s\n", res.EDPNJs)

	if res.Integrity != nil {
		fmt.Fprintf(&b, "\n-- integrity --\n")
		if len(res.Integrity) == 0 {
			fmt.Fprintf(&b, "retention-safe: yes\n")
		} else {
			fmt.Fprintf(&b, "retention-safe: NO (%d violations; first: %v)\n",
				len(res.Integrity), res.Integrity[0])
		}
	}

	if rs := res.Resilience; rs != nil {
		fmt.Fprintf(&b, "\n-- resilience --\n")
		fmt.Fprintf(&b, "ECC events        : %d\n", rs.ECCEvents)
		fmt.Fprintf(&b, "quarantined rows  : %d\n", rs.QuarantinedRows)
		fmt.Fprintf(&b, "mode downgrades   : %d (%s -> %s)\n", rs.Downgrades, rs.InitialMode, rs.FinalMode)
		if rs.ECCEvents > 0 {
			fmt.Fprintf(&b, "first error / MTBF: %.3f ms / %.3f ms\n", rs.FirstErrorMs, rs.MTBFMs)
		} else {
			fmt.Fprintf(&b, "first error / MTBF: none observed\n")
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// Compare renders a baseline-vs-variant comparison block.
func Compare(w io.Writer, label string, base, variant *sim.Result) error {
	pct := func(b, v float64) float64 {
		if b == 0 {
			return 0
		}
		return (b - v) / b * 100
	}
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s vs baseline ====\n", label)
	fmt.Fprintf(&b, "exec time reduction   : %6.2f%%\n",
		pct(float64(base.ExecCPUCycles), float64(variant.ExecCPUCycles)))
	fmt.Fprintf(&b, "read latency reduction: %6.2f%%\n",
		pct(base.AvgReadLatencyNS, variant.AvgReadLatencyNS))
	fmt.Fprintf(&b, "energy reduction      : %6.2f%%\n",
		pct(base.Energy.TotalNJ(), variant.Energy.TotalNJ()))
	fmt.Fprintf(&b, "EDP reduction         : %6.2f%%\n", pct(base.EDPNJs, variant.EDPNJs))
	_, err := io.WriteString(w, b.String())
	return err
}
