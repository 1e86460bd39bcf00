// Regression tests for the hardened executor: panics recovered into
// labelled per-spec errors, per-spec timeouts, and keep-going execution
// that survives poisoned configs.

package runplan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// panickingRun panics for the given seed (the way a dram command-legality
// check would on a poisoned config) and succeeds otherwise.
func panickingRun(badSeed int64) RunFunc {
	return func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == badSeed {
			panic(fmt.Sprintf("dram: illegal command for seed %d", badSeed))
		}
		return &sim.Result{ExecCPUCycles: cfg.Seed}, nil
	}
}

// TestPanicFailsPlanNotProcess is the satellite's regression test: a
// RunFunc that panics fails the plan with an error carrying the
// workload/config labels — the test binary (and any sweep process) lives.
func TestPanicFailsPlanNotProcess(t *testing.T) {
	plan := &Plan{Name: "panic"}
	for i := int64(0); i < 4; i++ {
		plan.AddPair(fmt.Sprintf("wl%d", i), fmt.Sprintf("cfg%d", i), fakeCfg(i), fakeCfg(100))
	}
	ex := Executor{Jobs: 2, Run: panickingRun(2)}
	_, err := ex.Execute(context.Background(), plan)
	if err == nil {
		t.Fatal("panicking spec must fail the plan")
	}
	var spec *SpecError
	if !errors.As(err, &spec) {
		t.Fatalf("err = %v, want a *SpecError", err)
	}
	if spec.Workload != "wl2" || spec.Config != "cfg2" || spec.Baseline {
		t.Fatalf("error labels wrong cell: %+v", spec)
	}
	if !strings.HasPrefix(err.Error(), "runplan: spec wl2 · cfg2 failed: ") {
		t.Fatalf("error text %q does not name the variant's cell", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "illegal command") {
		t.Fatalf("panic value lost: %v", pe)
	}
	if strings.TrimSpace(string(pe.Stack)) == "" {
		t.Fatal("recovered panic must capture a stack")
	}
}

// TestKeepGoingCompletesRemainingSpecs: under KeepGoing the poisoned spec
// records its labelled error and every other spec still completes.
func TestKeepGoingCompletesRemainingSpecs(t *testing.T) {
	plan := &Plan{Name: "keepgoing"}
	for i := int64(0); i < 5; i++ {
		add(plan, fmt.Sprintf("wl%d", i), "cfg", fakeCfg(i))
	}
	var events []Event
	ex := Executor{
		Jobs: 2, Run: panickingRun(3), KeepGoing: true,
		Sink: SinkFunc(func(e Event) { events = append(events, e) }),
	}
	results, err := ex.Execute(context.Background(), plan)
	if err == nil {
		t.Fatal("KeepGoing must still report the joined failures")
	}
	if !strings.Contains(err.Error(), "wl3") {
		t.Fatalf("joined error does not name the failed cell: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("%d results, want 5", len(results))
	}
	for i, r := range results {
		if i == 3 {
			if r.Err == nil || r.Run != nil {
				t.Fatalf("poisoned spec not recorded as failed: %+v", r)
			}
			var spec *SpecError
			if !errors.As(r.Err, &spec) || spec.Workload != "wl3" {
				t.Fatalf("spec error mislabelled: %v", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Run == nil {
			t.Fatalf("healthy spec %d did not complete: %+v", i, r)
		}
	}
	var failed int
	for _, e := range events {
		if e.Kind == KindFailed {
			failed++
			if e.Workload != "wl3" || e.Err == "" {
				t.Fatalf("failed event mislabelled: %+v", e)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed events, want 1", failed)
	}
	if len(events) != 5 {
		t.Fatalf("%d events, want 5 (every spec accounted for)", len(events))
	}
}

// TestKeepGoingBaselineFailureSkipsDependents: a failed memoized baseline
// fails its dependent specs with a labelled skip error while unrelated
// specs complete.
func TestKeepGoingBaselineFailureSkipsDependents(t *testing.T) {
	plan := &Plan{Name: "basefail"}
	plan.AddPair("wl0", "cfgA", fakeCfg(10), fakeCfg(666)) // shared failing baseline
	plan.AddPair("wl0", "cfgB", fakeCfg(11), fakeCfg(666))
	plan.AddPair("wl1", "cfgC", fakeCfg(12), fakeCfg(777)) // healthy baseline
	boom := errors.New("baseline boom")
	run := func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == 666 {
			return nil, boom
		}
		return &sim.Result{ExecCPUCycles: cfg.Seed}, nil
	}
	ex := Executor{Jobs: 4, Run: run, KeepGoing: true}
	results, err := ex.Execute(context.Background(), plan)
	if !errors.Is(err, boom) {
		t.Fatalf("joined error must wrap the baseline failure, got %v", err)
	}
	for i := 0; i < 2; i++ {
		r := results[i]
		if r.Err == nil || !errors.Is(r.Err, boom) {
			t.Fatalf("dependent spec %d lacks the baseline failure: %+v", i, r)
		}
		if !strings.Contains(r.Err.Error(), "baseline") {
			t.Fatalf("skip error does not say why: %v", r.Err)
		}
	}
	if results[2].Err != nil || results[2].Run == nil || results[2].Base == nil {
		t.Fatalf("unrelated spec must complete: %+v", results[2])
	}
}

// TestSpecTimeoutBoundsHungRun: a run that never returns on its own is
// cut off by SpecTimeout and surfaces as a deadline error; the plan
// (not the process) decides what happens next.
func TestSpecTimeoutBoundsHungRun(t *testing.T) {
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		<-ctx.Done() // hung until the per-spec deadline fires
		return nil, ctx.Err()
	}
	plan := &Plan{Name: "timeout"}
	add(plan, "wl", "cfg", fakeCfg(1))
	ex := Executor{Jobs: 1, Run: run, SpecTimeout: 10 * time.Millisecond}
	_, err := ex.Execute(context.Background(), plan)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	var spec *SpecError
	if !errors.As(err, &spec) || spec.Workload != "wl" {
		t.Fatalf("timeout not labelled with the spec: %v", err)
	}
}

// TestCancellationIsNotRetried: external cancellation returns the
// context error immediately — one run, no spec labelling.
func TestCancellationIsNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	calls := 0
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		cancel()
		<-ctx.Done()
		return nil, ctx.Err()
	}
	plan := &Plan{Name: "cancel-no-retry"}
	add(plan, "wl", "cfg", fakeCfg(1))
	ex := Executor{Jobs: 1, Run: run}
	_, err := ex.Execute(ctx, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var spec *SpecError
	if errors.As(err, &spec) {
		t.Fatalf("cancellation must not be labelled a spec failure: %v", err)
	}
	if calls != 1 {
		t.Fatalf("%d runs, want 1", calls)
	}
}

// TestKeepGoingCleanPlanReturnsNilError: KeepGoing on a healthy plan is
// indistinguishable from the default path.
func TestKeepGoingCleanPlanReturnsNilError(t *testing.T) {
	run, _ := countingRun(t)
	plan := &Plan{Name: "clean"}
	plan.AddPair("wl", "cfg", fakeCfg(1), fakeCfg(2))
	ex := Executor{Jobs: 2, Run: run, KeepGoing: true}
	results, err := ex.Execute(context.Background(), plan)
	if err != nil {
		t.Fatalf("clean plan returned %v", err)
	}
	if results[0].Err != nil || results[0].Run == nil || results[0].Base == nil {
		t.Fatalf("clean result wrong: %+v", results[0])
	}
}
