// Latency distribution and per-core metrics collected alongside the main
// counters.

package sim

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// LatencyHistogram is a fixed-bucket distribution of read latencies in
// nanoseconds: BoundsNS are the inclusive upper bounds of each bucket
// (the final implicit bucket is overflow), Counts the observations per
// bucket. The data is declared as snapshot.Histogram because the cycle
// loop's histogram is checkpointed as it stands; the statistics live
// here.
type LatencyHistogram snapshot.Histogram

// NewLatencyHistogram returns a histogram with DRAM-scale buckets.
func NewLatencyHistogram() *LatencyHistogram {
	bounds := []float64{20, 30, 40, 50, 60, 80, 100, 150, 200, 300, 500, 1000}
	return &LatencyHistogram{BoundsNS: bounds, Counts: make([]int64, len(bounds)+1)}
}

// Observe records one read latency (in memory cycles).
func (h *LatencyHistogram) Observe(memCycles int64) {
	ns := core.MemCyclesToNS(memCycles)
	h.N++
	h.SumNS += ns
	i := sort.SearchFloat64s(h.BoundsNS, ns)
	h.Counts[i]++
}

// Total returns the number of observations.
func (h *LatencyHistogram) Total() int64 { return h.N }

// Percentile returns an upper bound on the p-th percentile latency (the
// bucket boundary containing it); p in (0, 100].
func (h *LatencyHistogram) Percentile(p float64) float64 {
	if h.N == 0 || p <= 0 {
		return 0
	}
	target := int64(float64(h.N) * p / 100)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.BoundsNS) {
				return h.BoundsNS[i]
			}
			return h.BoundsNS[len(h.BoundsNS)-1] * 2 // overflow bucket
		}
	}
	return h.BoundsNS[len(h.BoundsNS)-1] * 2
}

// String renders the histogram compactly.
func (h *LatencyHistogram) String() string {
	s := ""
	prev := 0.0
	for i, b := range h.BoundsNS {
		if h.Counts[i] > 0 {
			s += fmt.Sprintf("  %6.0f-%-6.0f %8d\n", prev, b, h.Counts[i])
		}
		prev = b
	}
	if over := h.Counts[len(h.Counts)-1]; over > 0 {
		s += fmt.Sprintf("  %6.0f+%7s %8d\n", prev, "", over)
	}
	return s
}

// CoreStats summarizes one core's run.
type CoreStats struct {
	CoreID       int
	Workload     string
	Retired      int64
	DoneAtCPU    int64
	IPC          float64
	ReadsIssued  int64
	WritesIssued int64
	FetchStalls  int64
}
