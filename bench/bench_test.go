package bench

import (
	"context"
	"regexp"
	"testing"

	"repro/internal/sim"
)

// testOptions shrinks every pass to a 20k-instruction budget, a
// two-workload sweep and one timed repetition.
func testOptions(t *testing.T) Options {
	return Options{
		Seed: 3, Seconds: 0, MinReps: 1, Insts: 20_000,
		SweepNames: []string{"tigr", "comm2"}, MicroIters: 2_000, OutDir: t.TempDir(),
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts that a pass produced exactly the declared names,
// each with its declared unit. (Metrics.set already refuses a name set
// twice, so "exactly once" is "present and nothing else".)
func checkMetrics(t *testing.T, res *Result, defs []Def) {
	t.Helper()
	if !res.Correct {
		t.Errorf("%s: %d of %d checks failed: %v", res.Workload, res.Failed, res.Attempted, res.Notes)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, %d declared", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", res.Workload, d.Name)
			continue
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", res.Workload, d.Name, v.Unit, d.Unit)
		}
	}
}

func TestEveryWorkloadProducesEveryMetric(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			o := testOptions(t)
			res, err := RunEndToEnd(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, EndToEnd)
			for _, d := range EndToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want positive", w.Name, d.Name, res.Metrics[d.Name].Value)
				}
			}
			res, err = RunTraced(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, PerLayer)
			if res.Metrics["bench.loop_fidelity"].Value != 1 {
				t.Errorf("%s: step loop failed its fidelity gate: %v", w.Name, res.Notes)
			}
		})
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]Def(nil), EndToEnd...), PerLayer...) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

// TestManifestMatchesHarness keeps BENCHMARK.json and the harness lists
// in step: same workloads with the same reasons, same metrics with the
// same units and directions, every end-to-end metric bounded.
func TestManifestMatchesHarness(t *testing.T) {
	man, err := LoadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ws := Workloads()
	if len(man.Workloads) != len(ws) {
		t.Fatalf("manifest has %d workloads, harness %d", len(man.Workloads), len(ws))
	}
	for i, w := range ws {
		if man.Workloads[i].Name != w.Name || man.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %q, harness %q (or their reasons differ)", i, man.Workloads[i].Name, w.Name)
		}
	}
	var e2e, layer []ManifestDef
	setup := false
	for _, d := range man.EndToEnd {
		e2e = append(e2e, d.ManifestDef)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("manifest has no setup_s metric in seconds, lower is better")
	}
	layer = append(layer, man.PerLayer...)
	for _, c := range []struct {
		kind     string
		manifest []ManifestDef
		harness  []Def
	}{{"end-to-end", e2e, EndToEnd}, {"per-layer", layer, PerLayer}} {
		if len(c.manifest) != len(c.harness) {
			t.Errorf("%s: manifest has %d metrics, harness %d", c.kind, len(c.manifest), len(c.harness))
			continue
		}
		for i, d := range c.harness {
			if got := c.manifest[i]; got != (ManifestDef{Name: d.Name, Unit: d.Unit, Better: d.Better}) {
				t.Errorf("%s metric %d: manifest %+v, harness %+v", c.kind, i, got, d)
			}
		}
	}
}

// TestPerturbedLoopFailsFidelity shows the gate can fail: a loop that
// drops one Core.Cycle call per sampled step, sampling every 7th cycle,
// must be caught on all four traced workloads. (One dropped call in the
// whole run, or even one in 127 cycles, is not enough on the memory-bound
// ones: while the ROB head waits on DRAM a lost CPU cycle is absorbed and
// the run stays identical in everything, so there is nothing for any
// gate to see.)
func TestPerturbedLoopFailsFidelity(t *testing.T) {
	for _, name := range []string{"idle_1c", "membound_1c", "writedrain_1c", "quad_mix"} {
		w, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := w.Config(3, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		ref := cfg
		ref.Engine = sim.Stepped
		want, err := sim.Run(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, perturb := range []bool{false, true} {
			l, err := NewStepLoop(cfg, Attach{}, 7, want.MemCycles)
			if err != nil {
				t.Fatal(err)
			}
			l.dropCycles = perturb
			got, err := l.Run()
			if err != nil {
				t.Fatal(err)
			}
			err = got.Fidelity(want)
			if perturb && err == nil {
				t.Errorf("%s: a loop that drops Core.Cycle calls passed the fidelity gate", name)
			}
			if !perturb && err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	man := &Manifest{EndToEnd: []BoundedDef{
		{ManifestDef{"wall_s_p50", "s", "lower"}, 0.08},
		{ManifestDef{"sim_mips", "Minst/s", "higher"}, 0.08},
	}}
	man.Workloads = append(man.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	rec := func(walls, mips []float64) *Record {
		r := &Record{}
		for i := range walls {
			r.Sets = append(r.Sets, Set{EndToEnd: map[string]*Result{"w": {Metrics: map[string]Value{
				"wall_s_p50": {Value: walls[i], Unit: "s"}, "sim_mips": {Value: mips[i], Unit: "Minst/s"},
			}}}})
		}
		return r
	}
	old := rec([]float64{1.00, 1.01, 0.99}, []float64{10, 10.1, 9.9})
	for _, c := range []struct {
		name       string
		new        *Record
		wall, mips Verdict
	}{
		{"same", rec([]float64{1.02, 1.03, 1.01}, []float64{9.9, 10, 9.8}), Same, Same},
		{"slower", rec([]float64{1.20, 1.21, 1.19}, []float64{8.3, 8.4, 8.2}), Regression, Regression},
		{"faster", rec([]float64{0.80, 0.81, 0.79}, []float64{12.4, 12.5, 12.3}), Better, Better},
		{"noisy", rec([]float64{0.90, 1.05, 1.30}, []float64{11, 9.5, 7.7}), Unresolved, Unresolved},
	} {
		rows := Compare(man, old, c.new)
		if len(rows) != 2 || rows[0].Verdict != c.wall || rows[1].Verdict != c.mips {
			t.Errorf("%s: got %+v, want %s/%s", c.name, rows, c.wall, c.mips)
		}
		if Regressed(rows) != (c.wall == Regression) {
			t.Errorf("%s: Regressed = %v", c.name, Regressed(rows))
		}
	}
}
