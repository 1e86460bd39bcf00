// Edge-case unit tests for the reduction arithmetic: empty point sets,
// zero baseline denominators and single-config sweeps.

package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestReduceZeroBaselineDenominators(t *testing.T) {
	base := &sim.Result{} // every denominator zero
	v := &sim.Result{ExecCPUCycles: 100, AvgReadLatencyNS: 50, EDPNJs: 2}
	r := reduce(base, v)
	if r != (Reduction{}) {
		t.Fatalf("zero baselines must yield zero reductions, got %+v", r)
	}
	// Mixed: only the zero-denominator metric collapses to 0.
	base2 := &sim.Result{ExecCPUCycles: 200, AvgReadLatencyNS: 0, EDPNJs: 4}
	r2 := reduce(base2, v)
	if r2.ExecTime != 50 {
		t.Fatalf("ExecTime = %g, want 50", r2.ExecTime)
	}
	if r2.ReadLatency != 0 {
		t.Fatalf("zero-latency baseline must not divide, got %g", r2.ReadLatency)
	}
	if r2.EDP != 50 {
		t.Fatalf("EDP = %g, want 50", r2.EDP)
	}
}

func TestReduceSigns(t *testing.T) {
	base := &sim.Result{ExecCPUCycles: 100, AvgReadLatencyNS: 100, EDPNJs: 100}
	worse := &sim.Result{ExecCPUCycles: 150, AvgReadLatencyNS: 50, EDPNJs: 100}
	r := reduce(base, worse)
	if r.ExecTime != -50 {
		t.Fatalf("a slower variant must reduce negatively, got %g", r.ExecTime)
	}
	if r.ReadLatency != 50 {
		t.Fatalf("a faster read path must reduce positively, got %g", r.ReadLatency)
	}
	if r.EDP != 0 {
		t.Fatalf("an equal EDP must reduce to zero, got %g", r.EDP)
	}
}

func TestMeanEdgeCases(t *testing.T) {
	if m := mean(nil); m != (Reduction{}) {
		t.Fatalf("mean of nothing must be zero, got %+v", m)
	}
	if m := mean([]Reduction{}); m != (Reduction{}) {
		t.Fatalf("mean of empty slice must be zero, got %+v", m)
	}
	one := Reduction{ExecTime: 7, ReadLatency: -3, EDP: 0.5}
	if m := mean([]Reduction{one}); m != one {
		t.Fatalf("mean of one element must be itself, got %+v", m)
	}
	m := mean([]Reduction{{ExecTime: 2}, {ExecTime: 4}})
	if m.ExecTime != 3 || m.ReadLatency != 0 || m.EDP != 0 {
		t.Fatalf("mean wrong: %+v", m)
	}
}

func TestAverageByConfigEmptySweep(t *testing.T) {
	s := &Sweep{Figure: "empty"}
	s.averageByConfig()
	if s.Average == nil {
		t.Fatal("Average must be non-nil even for an empty sweep")
	}
	if len(s.Average) != 0 {
		t.Fatalf("empty sweep must average to nothing, got %v", s.Average)
	}
	// Rendering an empty sweep must not panic and still carry the header.
	var buf bytes.Buffer
	if err := WriteSweep(&buf, s, "exec"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty sweep rendering lost its figure name")
	}
}

func TestAverageByConfigSingleConfig(t *testing.T) {
	s := &Sweep{
		Figure: "single",
		Points: []SweepPoint{
			{Workload: "a", Config: "only", Reduction: Reduction{ExecTime: 1}},
			{Workload: "b", Config: "only", Reduction: Reduction{ExecTime: 5}},
			{Workload: "c", Config: "only", Reduction: Reduction{ExecTime: 3}},
		},
	}
	s.averageByConfig()
	if len(s.Average) != 1 {
		t.Fatalf("want one config, got %v", s.Average)
	}
	if got := s.Average["only"].ExecTime; got != 3 {
		t.Fatalf("average = %g, want 3", got)
	}
	if order := configOrder(s); len(order) != 1 || order[0] != "only" {
		t.Fatalf("configs = %v", order)
	}
}

func TestAverageByConfigPreservesDistinctConfigs(t *testing.T) {
	s := &Sweep{
		Figure: "multi",
		Points: []SweepPoint{
			{Workload: "a", Config: "x", Reduction: Reduction{ExecTime: 10}},
			{Workload: "a", Config: "y", Reduction: Reduction{ExecTime: 2}},
			{Workload: "b", Config: "x", Reduction: Reduction{ExecTime: 20}},
			{Workload: "b", Config: "y", Reduction: Reduction{ExecTime: 4}},
		},
	}
	s.averageByConfig()
	if s.Average["x"].ExecTime != 15 || s.Average["y"].ExecTime != 3 {
		t.Fatalf("averages wrong: %v", s.Average)
	}
	order := configOrder(s)
	if len(order) != 2 || order[0] != "x" || order[1] != "y" {
		t.Fatalf("first-appearance order wrong: %v", order)
	}
}
