// Executor checkpoint/resume tests: a spec that dies mid-run — panic or
// SpecTimeout — is resumed by a rerun from its last snapshot instead of
// restarting, and still produces the uninterrupted run's exact Result.

package runplan

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mcr/mcrtest"
	"repro/internal/obs"
	"repro/internal/sim"
)

// realCfg is a small but real simulation (the fake RunFuncs of the other
// executor tests cannot checkpoint).
func realCfg() sim.Config {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 40_000
	cfg.Seed = 3
	return cfg
}

// resultJSON renders a Result with the wall clock zeroed.
func resultJSON(t *testing.T, res *sim.Result) string {
	t.Helper()
	res.Wall = 0
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// hookedRun wraps sim.RunContext so the test can observe and perturb the
// checkpoint hooks the executor attached.
func hookedRun(t *testing.T, mutate func(ctx context.Context, nth int64, ck *sim.CheckpointConfig)) (RunFunc, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var calls, resumedAt atomic.Int64
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		n := calls.Add(1)
		if cfg.Checkpoint == nil {
			t.Error("executor did not attach a checkpoint policy")
			return sim.RunContext(ctx, cfg)
		}
		ck := *cfg.Checkpoint
		ck.OnResume = func(cycle int64) { resumedAt.Store(cycle) }
		mutate(ctx, n, &ck)
		cfg.Checkpoint = &ck
		return sim.RunContext(ctx, cfg)
	}
	return run, &calls, &resumedAt
}

// TestExecutorResumesAfterPanic: a panic mid-simulation (after a snapshot
// was written) fails its spec and leaves the snapshot behind, and a rerun
// with the same CheckpointDir continues from it — same final Result as a
// run that never crashed.
func TestExecutorResumesAfterPanic(t *testing.T) {
	ref, err := sim.Run(realCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, ref)

	run, calls, resumedAt := hookedRun(t, func(_ context.Context, nth int64, ck *sim.CheckpointConfig) {
		if nth == 1 {
			ck.OnWrite = func(cycle int64) { panic("injected crash after checkpoint write") }
		}
	})
	plan := &Plan{Name: "panic-resume"}
	add(plan, "stream", "ckpt", realCfg())
	var events []Event
	ex := Executor{
		Jobs: 1, Run: run,
		CheckpointDir: t.TempDir(), CheckpointEvery: 4096,
		Sink: SinkFunc(func(e Event) { events = append(events, e) }),
	}
	var pe *PanicError
	if _, err := ex.Execute(context.Background(), plan); !errors.As(err, &pe) {
		t.Fatalf("first run: err = %v, want a recovered panic", err)
	}
	if resumedAt.Load() != 0 {
		t.Fatal("first run resumed from a snapshot it cannot have written yet")
	}
	results, err := ex.Execute(context.Background(), plan)
	if err != nil {
		t.Fatalf("rerun after panic must succeed: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d runs, want 2", n)
	}
	if resumedAt.Load() == 0 {
		t.Fatal("rerun restarted from scratch instead of resuming")
	}
	if got := resultJSON(t, results[0].Run); got != want {
		t.Errorf("resumed Result diverged from the uninterrupted run")
	}
	if len(events) != 1 || events[0].Kind != KindBaseline {
		t.Fatalf("events = %+v, want one event from the rerun", events)
	}
}

// TestEqualKeysShareOneSnapshot: two specs with one config key are one
// simulation under CheckpointDir, so they write one snapshot path.
func TestEqualKeysShareOneSnapshot(t *testing.T) {
	var paths []string // Jobs 1: runs are sequential
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		paths = append(paths, cfg.Checkpoint.Path)
		return sim.RunContext(ctx, cfg)
	}
	plan := &Plan{Name: "one-key"}
	add(plan, "stream", "a", realCfg())
	add(plan, "stream", "b", realCfg())
	ex := Executor{Jobs: 1, Run: run, CheckpointDir: t.TempDir(), CheckpointEvery: 4096}
	results, err := ex.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] == "" {
		t.Fatalf("snapshot paths %q, want one simulation with one path", paths)
	}
	if results[0].Run != results[1].Run {
		t.Fatal("specs with one key must share one result")
	}
}

// TestExecutorResumesAfterSpecTimeout: a run cut off by SpecTimeout
// fails its spec, and a rerun with the same CheckpointDir resumes from
// the snapshot the first run managed to write, with the exact
// uninterrupted Result.
func TestExecutorResumesAfterSpecTimeout(t *testing.T) {
	ref, err := sim.Run(realCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, ref)

	run, calls, resumedAt := hookedRun(t, func(ctx context.Context, nth int64, ck *sim.CheckpointConfig) {
		if nth == 1 {
			// Stall inside the write hook until the run's deadline: the
			// snapshot is already on disk, the run then times out.
			ck.OnWrite = func(cycle int64) { <-ctx.Done() }
		}
	})
	plan := &Plan{Name: "timeout-resume"}
	add(plan, "stream", "ckpt", realCfg())
	ex := Executor{
		Jobs: 1, Run: run, SpecTimeout: 300 * time.Millisecond,
		CheckpointDir: t.TempDir(), CheckpointEvery: 4096,
	}
	var spec *SpecError
	if _, err := ex.Execute(context.Background(), plan); !errors.As(err, &spec) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first run: err = %v, want a SpecError wrapping the deadline", err)
	}
	results, err := ex.Execute(context.Background(), plan)
	if err != nil {
		t.Fatalf("rerun after timeout must succeed: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d runs, want 2", n)
	}
	if resumedAt.Load() == 0 {
		t.Fatal("rerun restarted from scratch instead of resuming")
	}
	if got := resultJSON(t, results[0].Run); got != want {
		t.Errorf("resumed Result diverged from the uninterrupted run")
	}
}

// TestSpecTimeoutEmitsDeterministicFailure: under KeepGoing, specs that
// time out emit exactly one KindFailed event per cell, labelled with the
// cell and the cause, in plan order.
func TestSpecTimeoutEmitsDeterministicFailure(t *testing.T) {
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		<-ctx.Done() // hung until the per-spec deadline fires
		return nil, ctx.Err()
	}
	plan := &Plan{Name: "timeout-fail"}
	add(plan, "wl0", "cfgA", fakeCfg(1))
	add(plan, "wl1", "cfgB", fakeCfg(2))
	var events []Event
	ex := Executor{
		Jobs: 1, Run: run, SpecTimeout: 10 * time.Millisecond,
		KeepGoing: true,
		Sink:      SinkFunc(func(e Event) { events = append(events, e) }),
	}
	results, err := ex.Execute(context.Background(), plan)
	if err == nil {
		t.Fatal("timed-out specs must surface in the joined error")
	}
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	for i, e := range events {
		if e.Kind != KindFailed {
			t.Fatalf("event %d kind = %v, want KindFailed", i, e.Kind)
		}
		wantCell := [2]string{"wl0", "cfgA"}
		if i == 1 {
			wantCell = [2]string{"wl1", "cfgB"}
		}
		if e.Workload != wantCell[0] || e.Config != wantCell[1] {
			t.Fatalf("event %d labels %s·%s, want %s·%s", i, e.Workload, e.Config, wantCell[0], wantCell[1])
		}
		want := "runplan: baseline " + wantCell[0] + " · " + wantCell[1] + " failed: " + context.DeadlineExceeded.Error()
		if e.Err != want {
			t.Fatalf("event %d error = %q, want %q", i, e.Err, want)
		}
		if e.Done != i+1 || e.Total != 2 {
			t.Fatalf("event %d progress %d/%d, want %d/2", i, e.Done, e.Total, i+1)
		}
	}
	for i, r := range results {
		var spec *SpecError
		if !errors.As(r.Err, &spec) || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("result %d error = %v, want a SpecError wrapping the deadline", i, r.Err)
		}
	}
}

// TestKeptResultsSkipFinishedRuns: under CheckpointDir a finished
// simulation keeps its Result, so the rerun of a plan that failed
// simulates only what had not finished, and hands back the kept Result
// exactly as the simulation built it (a guarded MCR run with metrics: obs
// counters, violations, resilience and mechanism stats). Once the whole
// plan has succeeded its directory is empty.
func TestKeptResultsSkipFinishedRuns(t *testing.T) {
	guardedCfg := realCfg()
	guardedCfg.Workloads, guardedCfg.InstsPerCore = []string{"tigr"}, 300_000
	guardedCfg.DRAM = dram.DefaultConfig(mcrtest.Mode(4, 4, 1))
	guardedCfg.Fault = &fault.Config{WeakFraction: 1e-3, TailMinFrac: 5e-4, TailMaxFrac: 5e-3}
	guardedCfg.Resilience = &sim.ResilienceConfig{DowngradeAfter: 4, Quarantine: true}
	other := realCfg()
	other.Seed = 4

	refCfg := guardedCfg
	refCfg.Metrics = obs.NewRegistry()
	want, err := sim.Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	want.Wall = 0
	if len(want.Integrity) == 0 || want.Resilience.QuarantinedRows == 0 {
		t.Fatalf("the guarded run saw %d violations and %d quarantines; the test needs both", len(want.Integrity), want.Resilience.QuarantinedRows)
	}

	plan := &Plan{Name: "kept"}
	add(plan, "stream", "guarded", guardedCfg)
	add(plan, "stream", "other", other)
	var simulated []string
	fail := true
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		simulated = append(simulated, cfg.Checkpoint.Path)
		if cfg.Seed == other.Seed && fail {
			return nil, errors.New("injected failure")
		}
		return sim.RunContext(ctx, cfg)
	}
	dir := t.TempDir()
	var events []Event
	ex := Executor{
		Jobs: 1, Run: run, Metrics: true, CheckpointDir: dir, CheckpointEvery: 4096,
		Sink: SinkFunc(func(e Event) { events = append(events, e) }),
	}
	if _, err := ex.Execute(context.Background(), plan); err == nil {
		t.Fatal("the injected failure must fail the plan")
	}
	if names := dirNames(t, dir); len(names) != 1 || filepath.Ext(names[0]) != ".result" {
		t.Fatalf("the failed plan left %v, want the finished run's result alone", names)
	}

	fail, simulated, events = false, nil, nil
	results, err := ex.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(simulated) != 1 || len(events) != 1 || events[0].Config != "other" || events[0].Done != 2 || events[0].Total != 2 {
		t.Fatalf("the rerun simulated %d runs with events %+v, want only the unfinished one, as 2 of 2", len(simulated), events)
	}
	got := results[0].Run
	got.Wall = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the kept Result differs from the simulation's:\n got %+v\nwant %+v", got, want)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("a finished plan left %v", names)
	}
}

// TestKeptResultNeedsItsMetricsAndFormat: a kept Result is reused only by
// a rerun under the Metrics setting that kept it, so its Obs is there
// exactly when the rerun asked for metrics, and a file of another format
// is simulated again.
func TestKeptResultNeedsItsMetricsAndFormat(t *testing.T) {
	kept := realCfg()
	other := realCfg()
	other.Seed = 4
	plan := &Plan{Name: "kept"}
	add(plan, "stream", "kept", kept)
	add(plan, "stream", "other", other)
	for _, tc := range []struct {
		name            string
		keptWith, rerun bool // Executor.Metrics of the failed run and of the rerun
		format          int  // the format the kept file is rewritten to, 0 to leave it
	}{
		{"kept without metrics, rerun with", false, true, 0},
		{"kept with metrics, rerun without", true, false, 0},
		{"another format", false, false, keptFormat + 1},
	} {
		dir := t.TempDir()
		simulated, fail := 0, true
		run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			simulated++
			if cfg.Seed == other.Seed && fail {
				return nil, errors.New("injected failure")
			}
			return sim.RunContext(ctx, cfg)
		}
		ex := Executor{Jobs: 1, Run: run, Metrics: tc.keptWith, CheckpointDir: dir}
		if _, err := ex.Execute(context.Background(), plan); err == nil {
			t.Fatalf("%s: the injected failure must fail the plan", tc.name)
		}
		names := dirNames(t, dir)
		if len(names) != 1 || filepath.Ext(names[0]) != ".result" {
			t.Fatalf("%s: the failed plan left %v, want the finished run's result alone", tc.name, names)
		}
		if tc.format != 0 {
			path := filepath.Join(dir, names[0])
			var k map[string]any
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &k)
			}
			if err != nil {
				t.Fatal(err)
			}
			k["Format"] = tc.format
			if data, err = json.Marshal(k); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ex.Metrics, simulated, fail = tc.rerun, 0, false
		results, err := ex.Execute(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if simulated != 2 {
			t.Errorf("%s: the rerun simulated %d runs, want both", tc.name, simulated)
		}
		if got := results[0].Run.Obs != nil; got != tc.rerun {
			t.Errorf("%s: the rerun's Result has metrics %v, want %v", tc.name, got, tc.rerun)
		}
	}
}

// dirNames lists the names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
