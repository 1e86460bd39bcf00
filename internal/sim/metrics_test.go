package sim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

func TestLatencyHistogramBuckets(t *testing.T) {
	h := NewLatencyHistogram()
	// 25 ns -> second bucket (20, 30]; 5 ns -> first; 5000 ns -> overflow.
	h.Observe(int64(25 / core.MemCycleNS))
	h.Observe(int64(5 / core.MemCycleNS))
	h.Observe(int64(5000 / core.MemCycleNS))
	if h.Total() != 3 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", h.Counts)
	}
	if h.SumNS <= 0 {
		t.Fatal("latency sum must be positive")
	}
	if !strings.Contains(h.String(), "20") {
		t.Fatal("rendering incomplete")
	}
}

func TestLatencyHistogramPercentile(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 90; i++ {
		h.Observe(int64(25 / core.MemCycleNS)) // 30 ns bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(int64(450 / core.MemCycleNS)) // 500 ns bucket
	}
	if p := h.Percentile(50); p != 30 {
		t.Fatalf("p50 = %g, want 30", p)
	}
	if p := h.Percentile(99); p != 500 {
		t.Fatalf("p99 = %g, want 500", p)
	}
	if h.Percentile(0) != 0 || NewLatencyHistogram().Percentile(50) != 0 {
		t.Fatal("degenerate percentiles must be 0")
	}
}

func TestResultCarriesMetrics(t *testing.T) {
	res, err := Run(quickCfg("ferret", mcr.Off()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency == nil || res.Latency.Total() != res.ReadCount {
		t.Fatal("histogram must cover every read")
	}
	// The histogram mean must agree with the scalar average.
	mean := res.Latency.SumNS / float64(res.Latency.N)
	if diff := mean - res.AvgReadLatencyNS; diff > 0.01 || diff < -0.01 {
		t.Fatalf("histogram mean %.2f disagrees with average %.2f", mean, res.AvgReadLatencyNS)
	}
	if len(res.Cores) != 1 || res.Cores[0].Workload != "ferret" {
		t.Fatalf("core stats missing: %+v", res.Cores)
	}
	if res.Cores[0].IPC <= 0 || res.Cores[0].ReadsIssued == 0 {
		t.Fatalf("core stats empty: %+v", res.Cores[0])
	}
}

// TestMCRShiftsLatencyDistribution: MCR moves mass toward lower buckets.
func TestMCRShiftsLatencyDistribution(t *testing.T) {
	base, err := Run(quickCfg("tigr", mcr.Off()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(quickCfg("tigr", mcrtest.Mode(4, 4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Latency.Percentile(50) > base.Latency.Percentile(50) {
		t.Fatalf("MCR p50 %.0f must not exceed baseline p50 %.0f",
			m.Latency.Percentile(50), base.Latency.Percentile(50))
	}
}

// TestWarmupExcludesColdReads: with warmup set, the latency statistics
// cover fewer reads but the run still completes with identical execution
// time (warmup only filters statistics, never behavior).
func TestWarmupExcludesColdReads(t *testing.T) {
	cold, err := Run(quickCfg("comm1", mcr.Off()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("comm1", mcr.Off())
	cfg.WarmupInsts = cfg.InstsPerCore / 2
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ExecCPUCycles != cold.ExecCPUCycles {
		t.Fatalf("warmup changed execution: %d vs %d", warm.ExecCPUCycles, cold.ExecCPUCycles)
	}
	if warm.ReadCount == 0 || warm.ReadCount >= cold.ReadCount {
		t.Fatalf("warmup read count %d must be a strict subset of %d", warm.ReadCount, cold.ReadCount)
	}
	if warm.Latency.Total() != warm.ReadCount {
		t.Fatal("histogram must match the filtered count")
	}
}
