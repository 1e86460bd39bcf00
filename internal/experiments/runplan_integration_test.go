// Regression tests for the run-plan execution layer as the experiments
// package uses it: parallel execution must be byte-identical to serial,
// each distinct configuration is simulated exactly once per plan, and
// figures folded into one plan render exactly as they do one by one.

package experiments

import (
	"bytes"
	"testing"

	"repro/internal/runplan"
	"repro/internal/sim"
)

// renderAll formats a sweep under every metric, concatenated.
func renderAll(t *testing.T, s *Sweep) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, metric := range []string{"exec", "readlat", "edp"} {
		if err := WriteSweep(&buf, s, metric); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSweepDeterministicAcrossJobs: the same seed must produce
// byte-identical formatted output with -jobs 1 and -jobs N, and across
// repeated executions.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	sweep := func(jobs int) []byte {
		o := fastOpts()
		o.Jobs = jobs
		s, err := Fig11(o, subset)
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, s)
	}
	serial := sweep(1)
	if again := sweep(1); !bytes.Equal(serial, again) {
		t.Fatal("serial execution not deterministic across repeats at the same seed")
	}
	for _, jobs := range []int{2, 8} {
		if pooled := sweep(jobs); !bytes.Equal(serial, pooled) {
			t.Fatalf("jobs=%d output differs from serial:\n--- serial ---\n%s--- pooled ---\n%s", jobs, serial, pooled)
		}
	}
}

// TestBaselineSimulatedOncePerPlan: a Quick-sized multi-config sweep
// (Fig 13's 15 modes per workload) must issue each unique baseline config
// exactly once through the pooled executor, while producing results
// identical to the serial path.
func TestBaselineSimulatedOncePerPlan(t *testing.T) {
	run := func(jobs int) (*Sweep, []runplan.Event) {
		var events []runplan.Event // executor serializes sink calls
		o := Options{Insts: 40_000, Seed: 1, Jobs: jobs,
			Progress: runplan.SinkFunc(func(e runplan.Event) { events = append(events, e) })}
		s, err := Fig13(o, subset)
		if err != nil {
			t.Fatal(err)
		}
		return s, events
	}
	pooledSweep, events := run(4)

	const modes = 15
	wantVariants := len(subset) * modes
	var baselines, variants int
	for _, e := range events {
		switch e.Kind {
		case runplan.KindBaseline:
			baselines++
		case runplan.KindVariant:
			variants++
		}
	}
	if baselines != len(subset) {
		t.Errorf("baselines simulated %d times, want exactly %d (one per unique config)", baselines, len(subset))
	}
	if variants != wantVariants {
		t.Errorf("variants simulated %d times, want %d", variants, wantVariants)
	}

	serialSweep, _ := run(1)
	if !bytes.Equal(renderAll(t, serialSweep), renderAll(t, pooledSweep)) {
		t.Error("pooled results differ from the serial path")
	}
}

// TestOnePlanMatchesPerFigure: Figs 11-13, 17 and 18 on the subset plus
// Fig 14 on one mix, run as one plan, render byte-identically to the
// per-figure calls and simulate each distinct config once. That is 7
// runs per single-core workload fewer than the per-figure calls: its
// baseline 4 times, and Fig 11's [4/4x] ratio 1.00 (= Fig 17 case 2),
// Fig 12's alloc 10% (= Fig 13 [4/4x/50%reg]) and Fig 18's [2/4x]
// (= Fig 17 case 4) once each. Fig 14 shares nothing with the others.
func TestOnePlanMatchesPerFigure(t *testing.T) {
	var runs int // the executor serializes sink calls
	o := Options{Insts: 20_000, Seed: 1, MaxMixes: 1, Jobs: 2,
		Progress: runplan.SinkFunc(func(runplan.Event) { runs++ })}
	figs := []study{paperSweeps[11][0], paperSweeps[12][0], paperSweeps[13][0],
		paperSweeps[17][0], paperSweeps[18][0], paperSweeps[14][0]}

	var want []byte
	perFigure := 0
	keys := map[string]bool{}
	for _, f := range figs {
		runs = 0
		s, err := runFigure(o, subset, f)
		if err != nil {
			t.Fatal(err)
		}
		perFigure += runs
		want = append(want, renderAll(t, s)...)

		plan, err := f.plan(o.withDefaults(), subset)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range plan.Specs {
			for _, c := range []sim.Config{sp.Run, sp.Baseline} {
				k, err := runplan.ConfigKey(c)
				if err != nil {
					t.Fatal(err)
				}
				keys[k] = true
			}
		}
	}

	runs = 0
	sweeps, err := runFigures(o, subset, figs...)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, s := range sweeps {
		got = append(got, renderAll(t, s)...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("one plan renders differently from the per-figure calls:\n--- per figure ---\n%s--- one plan ---\n%s", want, got)
	}
	if runs != len(keys) {
		t.Errorf("one plan ran %d simulations, want one per distinct key (%d)", runs, len(keys))
	}
	if saved := perFigure - runs; saved != 7*len(subset) {
		t.Errorf("one plan ran %d of the per-figure calls' %d simulations; want %d fewer (7 per single-core workload)",
			runs, perFigure, 7*len(subset))
	}
}
