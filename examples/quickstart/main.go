// Quickstart: compare a conventional DDR3 system against MCR-DRAM in mode
// [4/4x/100%reg] on the paper's most memory-bound workload and print the
// three headline metrics.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	mcrdram "repro"
)

func main() {
	const workload = "tigr"
	const insts = 1_000_000
	ctx := context.Background()

	baseline := mcrdram.SingleCore(workload, mcrdram.ModeOff())
	baseline.InstsPerCore = insts
	base, err := mcrdram.Run(ctx, baseline)
	if err != nil {
		log.Fatal(err)
	}

	mode, err := mcrdram.NewMode(4, 4, 1.0) // mode [4/4x/100%reg]
	if err != nil {
		log.Fatal(err)
	}
	cfg := mcrdram.SingleCore(workload, mode)
	cfg.InstsPerCore = insts
	// Metrics attaches the cycle-domain observability registry; its
	// snapshot lands in res.Obs (row-buffer outcomes, per-bank command
	// counts, stall attribution).
	cfg.Metrics = mcrdram.NewMetrics()
	res, err := mcrdram.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	pct := func(b, v float64) float64 { return (b - v) / b * 100 }
	fmt.Printf("workload %s, %d instructions\n\n", workload, insts)
	fmt.Printf("%-22s %15s %15s %10s\n", "metric", "baseline", mode.String(), "reduction")
	fmt.Printf("%-22s %15d %15d %9.1f%%\n", "exec time (CPU cyc)",
		base.ExecCPUCycles, res.ExecCPUCycles,
		pct(float64(base.ExecCPUCycles), float64(res.ExecCPUCycles)))
	fmt.Printf("%-22s %15.1f %15.1f %9.1f%%\n", "avg read latency (ns)",
		base.AvgReadLatencyNS, res.AvgReadLatencyNS,
		pct(base.AvgReadLatencyNS, res.AvgReadLatencyNS))
	fmt.Printf("%-22s %15.2f %15.2f %9.1f%%\n", "EDP (nJ*s)",
		base.EDPNJs, res.EDPNJs, pct(base.EDPNJs, res.EDPNJs))
	fmt.Printf("\nMCR served %.1f%% of reads; %d of %d refreshes used Fast-Refresh\n",
		res.MCRRequestFraction*100, res.Dev.MCRRefreshes, res.Dev.Refreshes)
	if o := res.Obs; o != nil {
		total := o.RowHits + o.RowMisses + o.RowConflicts
		if total > 0 {
			fmt.Printf("row buffer: %.1f%% hits over %d accesses (%d ACTs issued)\n",
				float64(o.RowHits)/float64(total)*100, total, o.Commands["ACT"])
		}
	}
}
