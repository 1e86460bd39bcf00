package mcrdram_test

import (
	"context"
	"fmt"

	mcrdram "repro"
)

// ExampleNewMode shows the paper's [M/Kx/L%reg] notation.
func ExampleNewMode() {
	mode, err := mcrdram.NewMode(4, 2, 0.75)
	if err != nil {
		panic(err)
	}
	fmt.Println(mode)
	fmt.Println("rows per MCR:", mode.K)
	fmt.Println("refreshes kept per 64 ms:", mode.M)
	fmt.Println("worst-case refresh interval:", 64/mode.M, "ms")
	// Output:
	// mode [2/4x/75%reg]
	// rows per MCR: 4
	// refreshes kept per 64 ms: 2
	// worst-case refresh interval: 32 ms
}

// ExampleTable3 prints the canonical MCR timing constraints.
func ExampleTable3() {
	for _, t := range mcrdram.Table3() {
		fmt.Printf("%d/%dx: tRCD %.2f ns, tRAS %.2f ns\n", t.M, t.K, t.TRCDNS, t.TRASNS)
	}
	// Output:
	// 1/1x: tRCD 13.75 ns, tRAS 35.00 ns
	// 1/2x: tRCD 9.94 ns, tRAS 37.52 ns
	// 2/2x: tRCD 9.94 ns, tRAS 21.46 ns
	// 1/4x: tRCD 6.90 ns, tRAS 46.51 ns
	// 2/4x: tRCD 6.90 ns, tRAS 22.78 ns
	// 4/4x: tRCD 6.90 ns, tRAS 20.00 ns
}

// ExampleMaxRefreshInterval reproduces the paper's Fig 8 wiring numbers.
func ExampleMaxRefreshInterval() {
	for _, k := range []int{2, 4} {
		fmt.Printf("%dx: K-to-K %.0f ms, K-to-N-1-K %.0f ms\n",
			k,
			mcrdram.MaxRefreshInterval(mcrdram.WiringKtoK, 3, k, 64),
			mcrdram.MaxRefreshInterval(mcrdram.WiringKtoN1K, 3, k, 64))
	}
	// Output:
	// 2x: K-to-K 56 ms, K-to-N-1-K 32 ms
	// 4x: K-to-K 40 ms, K-to-N-1-K 16 ms
}

// ExampleRun compares a conventional DDR3 system against MCR-DRAM in mode
// [4/4x/100%reg] on the paper's most memory-bound workload, with the
// cycle-domain observability registry attached to the MCR run.
func ExampleRun() {
	ctx := context.Background()
	base := mcrdram.SingleCore("tigr", mcrdram.ModeOff())
	base.InstsPerCore = 50_000
	bres, err := mcrdram.Run(ctx, base)
	if err != nil {
		panic(err)
	}

	mode, err := mcrdram.NewMode(4, 4, 1.0)
	if err != nil {
		panic(err)
	}
	cfg := mcrdram.SingleCore("tigr", mode)
	cfg.InstsPerCore = 50_000
	// Metrics attaches the observability registry; its snapshot lands in
	// res.Obs (row-buffer outcomes, per-bank command counts, stall
	// attribution).
	cfg.Metrics = mcrdram.NewMetrics()
	res, err := mcrdram.Run(ctx, cfg)
	if err != nil {
		panic(err)
	}

	fmt.Println(mode)
	fmt.Println("MCR-DRAM faster:", res.ExecCPUCycles < bres.ExecCPUCycles)
	fmt.Println("lower read latency:", res.AvgReadLatencyNS < bres.AvgReadLatencyNS)
	fmt.Println("served from MCRs:", res.MCRRequestFraction == 1.0)
	o := res.Obs
	fmt.Println("every read counted:", o.Reads == res.ReadCount)
	fmt.Println("activates recorded:", o.Commands["ACT"] > 0)
	// Output:
	// mode [4/4x/100%reg]
	// MCR-DRAM faster: true
	// lower read latency: true
	// served from MCRs: true
	// every read counted: true
	// activates recorded: true
}

// ExampleNewLayout builds the paper's Sec. 4.4 combined 2x+4x layout.
func ExampleNewLayout() {
	layout, err := mcrdram.NewLayout(
		mcrdram.Band{K: 4, M: 4, Region: 0.25},
		mcrdram.Band{K: 2, M: 2, Region: 0.25},
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(layout)
	// Output:
	// layout [4/4x/25%+2/2x/25%]
}
