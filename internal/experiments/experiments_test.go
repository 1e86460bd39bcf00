package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/runplan"
)

// fastOpts keeps CI runtime sane; the figure engines are exercised on a
// two-workload subset (the cmd/reproduce binary runs the full sets).
func fastOpts() Options { return Options{Insts: 60_000, Seed: 1} }

var subset = []string{"tigr", "black"}

func TestTable3RowsAndDeviation(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Table 3 must have 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.TRCDDevPct > 15 || r.TRCDDevPct < -15 || r.TRASDevPct > 15 || r.TRASDevPct < -15 {
			t.Errorf("mode %d/%dx derivation too far off: tRCD %+.1f%% tRAS %+.1f%%",
				r.M, r.K, r.TRCDDevPct, r.TRASDevPct)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable3(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4/4x") {
		t.Fatal("rendered table must list the 4/4x mode")
	}
}

func TestFig10Transients(t *testing.T) {
	trs := Fig10(40, 2)
	if len(trs) != 3 {
		t.Fatalf("Fig 10 needs 1x/2x/4x, got %d", len(trs))
	}
	for i, k := range []int{1, 2, 4} {
		if trs[i].K != k || len(trs[i].T) == 0 {
			t.Fatalf("transient %d malformed", i)
		}
	}
}

func TestFig8Table(t *testing.T) {
	rows := Fig8()
	if len(rows) != 3 {
		t.Fatalf("Fig 8 needs K=1,2,4, got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.K == 2 && (r.KtoK3Bit != 56 || r.KtoN1K3Bit != 32) {
			t.Fatalf("2x row wrong: %+v", r)
		}
		if r.K == 4 && (r.KtoK3Bit != 40 || r.KtoN1K3Bit != 16) {
			t.Fatalf("4x row wrong: %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := WriteFig8(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "KtoN1K") {
		t.Fatal("rendered Fig 8 incomplete")
	}
}

func TestFig11SubsetShape(t *testing.T) {
	s, err := Fig11(fastOpts(), subset)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != len(subset)*6 {
		t.Fatalf("Fig 11 points = %d, want %d", len(s.Points), len(subset)*6)
	}
	// Paper shape: [4/4x] at ratio 1.0 is the best configuration on
	// average, and improvements grow with the ratio.
	best := s.Average["[4/4x] ratio 1.00"]
	for cfgName, r := range s.Average {
		if r.ExecTime > best.ExecTime+1e-9 {
			t.Fatalf("%s (%.2f%%) beats [4/4x] ratio 1.0 (%.2f%%)", cfgName, r.ExecTime, best.ExecTime)
		}
	}
	if s.Average["[4/4x] ratio 1.00"].ExecTime <= s.Average["[4/4x] ratio 0.25"].ExecTime {
		t.Fatal("larger MCR ratio must help more")
	}
	// tigr must be among the most improved (paper: up to 17.2%).
	var tigrBest float64
	for _, p := range s.Points {
		if p.Workload == "tigr" && p.Reduction.ExecTime > tigrBest {
			tigrBest = p.Reduction.ExecTime
		}
	}
	if tigrBest < 5 {
		t.Fatalf("tigr best exec reduction %.1f%%, expected a large MCR win", tigrBest)
	}
}

func TestFig12AllocationMonotone(t *testing.T) {
	s, err := Fig12(fastOpts(), []string{"comm2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("Fig 12 points = %d, want 3", len(s.Points))
	}
	a10 := s.Average["alloc 10%"].ExecTime
	a30 := s.Average["alloc 30%"].ExecTime
	if a30+0.5 < a10 { // allow small noise; a30 should not be clearly worse
		t.Fatalf("30%% allocation (%.2f%%) clearly worse than 10%% (%.2f%%)", a30, a10)
	}
}

func TestFig17CaseOrdering(t *testing.T) {
	s, err := Fig17(fastOpts(), false, []string{"tigr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("Fig 17 points = %d, want 4", len(s.Points))
	}
	c1 := s.Average["case1 EA"].ExecTime
	c2 := s.Average["case2 EA+EP"].ExecTime
	if c2 <= c1 {
		t.Fatalf("case2 (%.2f%%) must beat case1 (%.2f%%)", c2, c1)
	}
}

func TestFig18EDP(t *testing.T) {
	s, err := Fig18(fastOpts(), false, []string{"tigr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("Fig 18 points = %d, want 3", len(s.Points))
	}
	if s.Average["mode [4/4x/100%reg]"].EDP <= 0 {
		t.Fatal("4/4x must improve EDP on tigr")
	}
}

func TestAblationWiring(t *testing.T) {
	s, err := Ablation(fastOpts(), AblationWiring, []string{"tigr"})
	if err != nil {
		t.Fatal(err)
	}
	good := s.Average["wiring K-to-N-1-K"].ExecTime
	bad := s.Average["wiring K-to-K"].ExecTime
	if good <= bad {
		t.Fatalf("the paper's wiring (%.2f%%) must beat K-to-K (%.2f%%)", good, bad)
	}
}

func TestMultiCoreMixes(t *testing.T) {
	mixes := MultiCoreMixes()
	if len(mixes) != 16 {
		t.Fatalf("paper uses 16 quad-core workloads, got %d", len(mixes))
	}
	for i, mix := range mixes[:14] {
		if len(mix) != 4 {
			t.Fatalf("mix %d has %d workloads", i, len(mix))
		}
		if isShared(mix) {
			t.Fatalf("mix %d misclassified as multithreaded", i)
		}
	}
	for _, mt := range mixes[14:] {
		if !isShared(mt) {
			t.Fatalf("MT workload %v not recognized", mt)
		}
	}
	if MixName(0, mixes[0]) != "mix01" || MixName(14, mixes[14]) != "MT-fluid" {
		t.Fatal("mix names wrong")
	}
}

func TestWriteSweepRendering(t *testing.T) {
	s := &Sweep{
		Figure: "demo",
		Points: []SweepPoint{
			{Workload: "a", Config: "x", Reduction: Reduction{ExecTime: 1, ReadLatency: 2, EDP: 3}},
			{Workload: "b", Config: "x", Reduction: Reduction{ExecTime: 3, ReadLatency: 4, EDP: 5}},
		},
	}
	s.averageByConfig()
	for _, metric := range []string{"exec", "readlat", "edp"} {
		var buf bytes.Buffer
		if err := WriteSweep(&buf, s, metric); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "AVG") || !strings.Contains(out, "demo") {
			t.Fatalf("%s rendering incomplete:\n%s", metric, out)
		}
	}
	if got := s.Average["x"].ExecTime; got != 2 {
		t.Fatalf("average = %g, want 2", got)
	}
	order := SortedAverageConfigs(s)
	if len(order) != 1 || order[0] != "x" {
		t.Fatalf("sorted configs = %v", order)
	}
}

func TestProgressSink(t *testing.T) {
	var events []runplan.Event // no locking: executor serializes sink calls
	o := fastOpts()
	o.Jobs = 4
	o.Progress = runplan.SinkFunc(func(e runplan.Event) { events = append(events, e) })
	if _, err := Fig18(o, false, []string{"black"}); err != nil {
		t.Fatal(err)
	}
	// 3 variants + 1 memoized baseline.
	if len(events) != 4 {
		t.Fatalf("%d events, want 4", len(events))
	}
	var baselines int
	for _, e := range events {
		if e.Kind == runplan.KindBaseline {
			baselines++
		}
		if e.Stats.Wall <= 0 || e.Stats.MemCycles <= 0 || e.Stats.Retired <= 0 {
			t.Fatalf("event missing instrumentation: %+v", e)
		}
		if e.Total != 4 || e.Done < 1 || e.Done > 4 || e.Pending != e.Total-e.Done {
			t.Fatalf("event accounting wrong: %+v", e)
		}
	}
	if baselines != 1 {
		t.Fatalf("baseline simulated %d times, want exactly 1", baselines)
	}
}

func TestNormalizeTo(t *testing.T) {
	s := &Sweep{
		Figure: "demo",
		Points: []SweepPoint{
			{Workload: "a", Config: "case2", Reduction: Reduction{ExecTime: 5}},
			{Workload: "a", Config: "case3", Reduction: Reduction{ExecTime: 10}},
		},
	}
	s.averageByConfig()
	norm, err := NormalizeTo(s, "case3")
	if err != nil {
		t.Fatal(err)
	}
	if norm["case3"] != 1 || norm["case2"] != 0.5 {
		t.Fatalf("normalization wrong: %v", norm)
	}
	if _, err := NormalizeTo(s, "nope"); err == nil {
		t.Fatal("unknown reference must error")
	}
}

func TestTLDRAMComparisonShape(t *testing.T) {
	s, err := TLDRAMComparison(fastOpts(), []string{"tigr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(s.Points))
	}
	// The MCR and TL schemes must beat the baseline on tigr; the NUAT-like
	// comparator's tRCD-only gain is within scheduling noise at this trace
	// length, so it only has to be non-degrading.
	for cfg, r := range s.Average {
		if cfg == "NUAT-like charge-aware" {
			if r.ExecTime < -2 {
				t.Errorf("%s: exec reduction %.2f degrades beyond noise", cfg, r.ExecTime)
			}
			continue
		}
		if r.ExecTime <= 0 {
			t.Errorf("%s: exec reduction %.2f must be positive", cfg, r.ExecTime)
		}
	}
}

func TestCombinedLayoutShape(t *testing.T) {
	s, err := CombinedLayout(fastOpts(), []string{"comm2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(s.Points))
	}
	if s.Average["combined 4x+2x"].ExecTime <= 0 {
		t.Fatal("the combined layout must beat the baseline on comm2")
	}
}

// TestSweepTracesCountDropped: every variant's trace group keeps its
// ring's newest events and carries how many older ones the ring lost.
func TestSweepTracesCountDropped(t *testing.T) {
	const ring = 64
	s, err := Fig11(Options{Insts: 20_000, Seed: 1, TraceCap: ring}, []string{"tigr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Traces) != len(s.Points) {
		t.Fatalf("%d trace groups for %d points", len(s.Traces), len(s.Points))
	}
	for _, g := range s.Traces {
		if len(g.Events) != ring || g.Dropped <= 0 {
			t.Errorf("%s: %d events kept, %d dropped; want a full ring of %d and a loss", g.Label, len(g.Events), g.Dropped, ring)
		}
	}
}
