// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the design-choice ablations DESIGN.md calls out.
//
// Each benchmark regenerates its artifact end-to-end (baseline + variant
// simulations) at a reduced instruction budget and reports the headline
// reduction as custom metrics, so
//
//	go test -bench=. -benchmem
//
// is a full (quick-fidelity) reproduction pass. cmd/reproduce runs the
// same engines at full fidelity.
package mcrdram_test

import (
	"testing"

	"repro/internal/experiments"
)

// benchOpts returns per-iteration options; budget scales with -benchtime
// iterations only through repetition, keeping one iteration affordable.
func benchOpts() experiments.Options {
	return experiments.Options{Insts: 60_000, Seed: 1}
}

// benchSubset keeps the per-iteration workload set small; the bench is
// about regenerating the figure's machinery, not its full statistical
// power.
var benchSubset = []string{"tigr", "comm2"}

// reportSweep publishes a sweep's average reductions as benchmark metrics.
func reportSweep(b *testing.B, s *experiments.Sweep, cfg, unit string) {
	b.Helper()
	if avg, ok := s.Average[cfg]; ok {
		b.ReportMetric(avg.ExecTime, unit+"-exec-red-%")
		b.ReportMetric(avg.ReadLatency, unit+"-readlat-red-%")
	}
}

// BenchmarkTable3Timings regenerates Table 3 from the circuit model.
func BenchmarkTable3Timings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("incomplete table")
		}
	}
}

// BenchmarkFig10Transient regenerates the Fig 10 activation waveforms.
func BenchmarkFig10Transient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trs := experiments.Fig10(50, 1)
		if len(trs) != 3 {
			b.Fatal("incomplete transients")
		}
	}
}

// BenchmarkFig8Wiring regenerates the refresh-wiring comparison.
func BenchmarkFig8Wiring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Fig8(); len(rows) != 3 {
			b.Fatal("incomplete table")
		}
	}
}

// BenchmarkFig11SingleCoreMCRRatio regenerates the single-core MCR-ratio
// sensitivity sweep.
func BenchmarkFig11SingleCoreMCRRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig11(benchOpts(), benchSubset)
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, s, "[4/4x] ratio 1.00", "4/4x@1.0")
	}
}

// BenchmarkFig12ProfileAllocation regenerates the single-core allocation
// sweep.
func BenchmarkFig12ProfileAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig12(benchOpts(), benchSubset)
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, s, "alloc 30%", "alloc30")
	}
}

// BenchmarkFig13ModeAnalysisSingle regenerates the single-core MCR-mode
// analysis (15 modes; the heaviest single-core figure).
func BenchmarkFig13ModeAnalysisSingle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig13(benchOpts(), benchSubset[:1])
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, s, "mode [4/4x/75%reg]", "4/4x/75")
	}
}

// multiOpts shrinks the multi-core budget further (4 cores per run).
func multiOpts() experiments.Options {
	o := benchOpts()
	o.Insts = 30_000
	return o
}

// BenchmarkFig14MultiCoreMCRRatio regenerates the quad-core ratio sweep on
// the first two mixes.
func BenchmarkFig14MultiCoreMCRRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := fig14Subset(multiOpts(), 2)
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, s, "[4/4x] ratio 1.00", "4/4x@1.0")
	}
}

// BenchmarkFig15ProfileAllocationMulti regenerates the quad-core
// allocation sweep on the first two mixes.
func BenchmarkFig15ProfileAllocationMulti(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fig15Subset(multiOpts(), 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16ModeAnalysisMulti regenerates the quad-core mode analysis
// on the first mix.
func BenchmarkFig16ModeAnalysisMulti(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fig16Subset(multiOpts(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17Mechanisms regenerates the mechanism ablation.
func BenchmarkFig17Mechanisms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig17(benchOpts(), false, benchSubset[:1])
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, s, "case2 EA+EP", "case2")
	}
}

// BenchmarkFig18EDP regenerates the EDP comparison.
func BenchmarkFig18EDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig18(benchOpts(), false, benchSubset[:1])
		if err != nil {
			b.Fatal(err)
		}
		if avg, ok := s.Average["mode [4/4x/100%reg]"]; ok {
			b.ReportMetric(avg.EDP, "4/4x-edp-red-%")
		}
	}
}

// BenchmarkCombinedLayout compares the paper's Sec. 4.4 combined 2x+4x
// layout against the pure modes at similar capacity cost.
func BenchmarkCombinedLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.SweepExtra(benchOpts(), "combined", benchSubset[1:])
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, s, "combined 4x+2x", "combined")
	}
}

// BenchmarkAblationWiring compares the two refresh-counter wirings.
func BenchmarkAblationWiring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.SweepExtra(benchOpts(), "wiring", benchSubset[:1])
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, s, "wiring K-to-N-1-K", "n1k")
	}
}

// BenchmarkAblationScheduler compares FR-FCFS against FCFS.
func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepExtra(benchOpts(), "scheduler", benchSubset[:1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRowPolicy compares open-page against close-page.
func BenchmarkAblationRowPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepExtra(benchOpts(), "rowpolicy", benchSubset[:1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLeakMargin sweeps the Early-Precharge conservatism of
// the circuit model (how much of the reclaimed leakage budget the timing
// derivation dares to spend) and reports the resulting 4/4x tRAS.
func BenchmarkAblationLeakMargin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tras, err := leakMarginSweep()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tras[len(tras)-1], "tRAS-aggressive-ns")
		b.ReportMetric(tras[0], "tRAS-conservative-ns")
	}
}

// BenchmarkTLDRAMComparison races MCR-DRAM against the TL-DRAM-like
// related-work baseline (paper Sec. 7) at matched fast-region size.
func BenchmarkTLDRAMComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.SweepExtra(benchOpts(), "tldram", benchSubset[:1])
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, s, "MCR [4/4x/50%reg]", "mcr4")
		reportSweep(b, s, "TL-DRAM-like 50% near", "tl")
	}
}
