// Executor checkpoint/resume tests: a spec that dies mid-run — panic or
// per-attempt timeout — resumes its retry from the last snapshot instead
// of restarting, and still produces the uninterrupted run's exact Result.

package runplan

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
func hookedRun(t *testing.T, mutate func(ctx context.Context, attempt int64, ck *sim.CheckpointConfig)) (RunFunc, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var attempts, resumedAt atomic.Int64
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		n := attempts.Add(1)
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
	return run, &attempts, &resumedAt
}

// TestExecutorResumesAfterPanic: a panic mid-simulation (after a snapshot
// was written) is recovered per spec, and the retry continues from the
// snapshot — same final Result as a run that never crashed.
func TestExecutorResumesAfterPanic(t *testing.T) {
	ref, err := sim.Run(realCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, ref)

	run, attempts, resumedAt := hookedRun(t, func(_ context.Context, attempt int64, ck *sim.CheckpointConfig) {
		if attempt == 1 {
			ck.OnWrite = func(cycle int64) { panic("injected crash after checkpoint write") }
		}
	})
	plan := &Plan{Name: "panic-resume"}
	plan.Add("stream", "ckpt", realCfg())
	var events []Event
	ex := Executor{
		Jobs: 1, Run: run, Retries: 1,
		CheckpointDir: t.TempDir(), CheckpointEvery: 4096,
		Sink: SinkFunc(func(e Event) { events = append(events, e) }),
	}
	results, err := ex.Execute(context.Background(), plan)
	if err != nil {
		t.Fatalf("retry after panic must succeed: %v", err)
	}
	if n := attempts.Load(); n != 2 {
		t.Fatalf("%d attempts, want 2", n)
	}
	if resumedAt.Load() == 0 {
		t.Fatal("second attempt restarted from scratch instead of resuming")
	}
	if got := resultJSON(t, results[0].Run); got != want {
		t.Errorf("resumed Result diverged from the uninterrupted run")
	}
	if len(events) != 1 || events[0].Kind != KindVariant {
		t.Fatalf("events = %+v, want one KindVariant", events)
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
	plan.Add("stream", "a", realCfg())
	plan.Add("stream", "b", realCfg())
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

// TestExecutorResumesAfterSpecTimeout: an attempt cut off by SpecTimeout
// resumes on retry from the snapshot it managed to write, with the exact
// uninterrupted Result.
func TestExecutorResumesAfterSpecTimeout(t *testing.T) {
	ref, err := sim.Run(realCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, ref)

	run, attempts, resumedAt := hookedRun(t, func(ctx context.Context, attempt int64, ck *sim.CheckpointConfig) {
		if attempt == 1 {
			// Stall inside the write hook until the attempt's deadline:
			// the snapshot is already on disk, the attempt then times out.
			ck.OnWrite = func(cycle int64) { <-ctx.Done() }
		}
	})
	plan := &Plan{Name: "timeout-resume"}
	plan.Add("stream", "ckpt", realCfg())
	ex := Executor{
		Jobs: 1, Run: run, Retries: 1, SpecTimeout: 300 * time.Millisecond,
		CheckpointDir: t.TempDir(), CheckpointEvery: 4096,
	}
	results, err := ex.Execute(context.Background(), plan)
	if err != nil {
		t.Fatalf("retry after timeout must succeed: %v", err)
	}
	if n := attempts.Load(); n != 2 {
		t.Fatalf("%d attempts, want 2", n)
	}
	if resumedAt.Load() == 0 {
		t.Fatal("second attempt restarted from scratch instead of resuming")
	}
	if got := resultJSON(t, results[0].Run); got != want {
		t.Errorf("resumed Result diverged from the uninterrupted run")
	}
}

// TestSpecTimeoutRetriesEmitDeterministicFailure: a spec that times out
// through its whole retry budget emits exactly one KindFailed event per
// cell, labelled with the cell and the attempt count — deterministically,
// however the attempts interleave.
func TestSpecTimeoutRetriesEmitDeterministicFailure(t *testing.T) {
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		<-ctx.Done() // hung until the per-attempt deadline fires
		return nil, ctx.Err()
	}
	plan := &Plan{Name: "timeout-exhaust"}
	plan.Add("wl0", "cfgA", fakeCfg(1))
	plan.Add("wl1", "cfgB", fakeCfg(2))
	var events []Event
	ex := Executor{
		Jobs: 1, Run: run, SpecTimeout: 10 * time.Millisecond, Retries: 2,
		KeepGoing: true,
		Sink:      SinkFunc(func(e Event) { events = append(events, e) }),
	}
	results, err := ex.Execute(context.Background(), plan)
	if err == nil {
		t.Fatal("exhausted retries must surface in the joined error")
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
		if !strings.Contains(e.Err, "after 3 attempts") || !strings.Contains(e.Err, "deadline") {
			t.Fatalf("event %d error not deterministic about attempts/cause: %q", i, e.Err)
		}
		if e.Done != i+1 || e.Total != 2 {
			t.Fatalf("event %d progress %d/%d, want %d/2", i, e.Done, e.Total, i+1)
		}
	}
	for i, r := range results {
		var spec *SpecError
		if !errors.As(r.Err, &spec) || spec.Attempts != 3 || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("result %d error = %v, want SpecError after 3 attempts wrapping deadline", i, r.Err)
		}
	}
}

// TestRetryBackoffIsContextAware: cancelling the plan while a retry is
// sleeping in its backoff aborts promptly. A plain time.Sleep here would
// hang this test for an hour — well past any test deadline.
func TestRetryBackoffIsContextAware(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func(context.Context, sim.Config) (*sim.Result, error) {
		// Fail instantly; cancellation arrives while the executor is
		// sleeping in the first backoff.
		time.AfterFunc(20*time.Millisecond, cancel)
		return nil, boom
	}
	plan := &Plan{Name: "backoff-cancel"}
	plan.Add("wl", "cfg", fakeCfg(1))
	ex := Executor{Jobs: 1, Run: run, Retries: 3, RetryBackoff: time.Hour}
	_, err := ex.Execute(ctx, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
