// Package mcrdram is a library-grade reproduction of "Multiple Clone Row
// DRAM: A Low Latency and Area Optimized DRAM" (Choi et al., ISCA 2015).
//
// MCR-DRAM treats K physically adjacent DRAM rows as one logical row by
// firing K wordlines together. The extra cell capacitance speeds sensing
// (Early-Access: lower tRCD); because the in-order refresh walk touches
// every clone, MCR cells are refreshed K times per 64 ms window, which
// shrinks their leakage budget and lets activations end before cells are
// fully restored (Early-Precharge: lower tRAS) and refreshes finish early
// (Fast-Refresh: lower tRFC). A mode register selects [M/Kx/L%reg]: K rows
// per MCR, M refreshes kept per window (Refresh-Skipping) and the fraction
// of rows ganged.
//
// The package sets up, runs and reports one simulation of the stack in
// internal/:
//
//   - circuit: a transient circuit model deriving the Table 3 timings
//   - timing:  DDR3-1600 baseline and MCR-mode parameter sets
//   - mcr:     MCR generator, refresh wiring, skipping, mode governor
//   - dram:    cycle-accurate device model with per-row timing classes
//   - controller: FR-FCFS memory controller with refresh management
//   - cpu:     trace-driven out-of-order cores (USIMM-style)
//   - trace:   synthetic MSC-workload generators
//   - alloc:   profile-based hot-row allocation
//   - power:   DDR3 energy model and EDP
//   - sim:     the assembled system
//   - experiments: regeneration of every figure and table of the paper,
//     driven by cmd/reproduce
//
// # Quickstart
//
//	mode, _ := mcrdram.NewMode(4, 4, 1.0) // mode [4/4x/100%reg]
//	cfg := mcrdram.SingleCore("tigr", mode)
//	res, err := mcrdram.Run(ctx, cfg)
//	// res.ExecCPUCycles, res.AvgReadLatencyNS, res.EDPNJs ...
//
// Cross-cutting concerns are Config fields too: Metrics attaches the
// cycle-domain observability registry (internal/obs — per-bank command
// counts, row-buffer outcomes, per-read stall attribution), Trace a
// bounded event tracer with a Chrome trace_event exporter, Integrity the
// retention-safety checker and Resilience the graceful-degradation policy:
//
//	tracer := mcrdram.NewTracer(0)
//	cfg.Metrics, cfg.Trace = mcrdram.NewMetrics(), tracer
//	res, err := mcrdram.Run(ctx, cfg)
//	// res.Obs.Stall, res.Obs.Commands ...; tracer.WriteChrome(f, "run")
//
// The package's Example functions are runnable programs that go test
// checks; cmd/reproduce regenerates the paper's evaluation.
package mcrdram
