package runplan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// add appends a spec that is its own baseline: one simulation, which the
// executor reports as a baseline.
func add(p *Plan, workload, config string, run sim.Config) {
	p.AddPair(workload, config, run, run)
}

// fakeCfg builds distinct configs by varying the seed (any field that
// survives the canonical key works).
func fakeCfg(seed int64) sim.Config {
	cfg := sim.DefaultConfig("tigr")
	cfg.Seed = seed
	return cfg
}

// countingRun returns a RunFunc that tallies invocations per config key
// and a getter for the tally.
func countingRun(t *testing.T) (RunFunc, func(seed int64) int) {
	t.Helper()
	var mu sync.Mutex
	counts := map[int64]int{}
	run := func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		mu.Lock()
		counts[cfg.Seed]++
		mu.Unlock()
		return &sim.Result{ExecCPUCycles: cfg.Seed, MemCycles: cfg.Seed * 4, RetiredInsts: cfg.InstsPerCore}, nil
	}
	return run, func(seed int64) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[seed]
	}
}

func TestBaselineMemoizedExactlyOnce(t *testing.T) {
	run, count := countingRun(t)
	plan := &Plan{Name: "memo"}
	// Six variants over two workloads; each workload shares one baseline.
	for wi := int64(0); wi < 2; wi++ {
		for v := int64(0); v < 3; v++ {
			plan.AddPair(
				fmt.Sprintf("wl%d", wi), fmt.Sprintf("cfg%d", v),
				fakeCfg(100+10*wi+v), // unique variant
				fakeCfg(1000+wi),     // per-workload baseline
			)
		}
	}
	// Spec 6 repeats spec 0's Run; spec 7's Run is spec 3's Baseline.
	plan.AddPair("wl0", "cfg0 again", fakeCfg(100), fakeCfg(1000))
	add(plan, "wl1", "baseline as a cell", fakeCfg(1001))
	for _, jobs := range []int{1, 4} {
		kinds := map[Kind]int{}
		ex := Executor{Jobs: jobs, Run: run, Sink: SinkFunc(func(e Event) { kinds[e.Kind]++ })}
		results, err := ex.Execute(context.Background(), plan)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(results) != 8 {
			t.Fatalf("jobs=%d: %d results, want 8", jobs, len(results))
		}
		for _, r := range results[:7] {
			if r.Base == nil || r.Run == nil {
				t.Fatalf("jobs=%d: missing result in %+v", jobs, r)
			}
		}
		// References to one config must share the same *sim.Result.
		if results[0].Base != results[1].Base || results[3].Base != results[5].Base {
			t.Fatalf("jobs=%d: baseline results not shared", jobs)
		}
		if results[0].Base == results[3].Base {
			t.Fatalf("jobs=%d: distinct baselines wrongly merged", jobs)
		}
		if results[0].Run != results[6].Run {
			t.Fatalf("jobs=%d: equal Run configs not shared", jobs)
		}
		if results[7].Run != results[3].Base || results[7].Base != results[3].Base {
			t.Fatalf("jobs=%d: a Run equal to another spec's Baseline not shared", jobs)
		}
		// Eight distinct configs; the two first referenced as baselines
		// keep that kind even where a later spec runs them.
		if kinds[KindBaseline] != 2 || kinds[KindVariant] != 6 {
			t.Fatalf("jobs=%d: event kinds %v, want 2 baselines and 6 variants", jobs, kinds)
		}
	}
	// Two executions above: each distinct config ran once per execution,
	// however many specs referenced it.
	for _, seed := range []int64{1000, 1001, 100, 111} {
		if got := count(seed); got != 2 {
			t.Errorf("seed %d ran %d times, want 2 (once per Execute)", seed, got)
		}
	}
}

func TestResultsInSpecOrderDespiteCompletionOrder(t *testing.T) {
	plan := &Plan{Name: "order"}
	const n = 12
	for i := int64(0); i < n; i++ {
		plan.AddPair(fmt.Sprintf("wl%d", i), "cfg", fakeCfg(100+i), fakeCfg(1))
	}
	// Earlier specs sleep longer, so completion order inverts spec order.
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed >= 100 {
			time.Sleep(time.Duration(n-(cfg.Seed-100)) * time.Millisecond)
		}
		return &sim.Result{ExecCPUCycles: cfg.Seed}, nil
	}
	ex := Executor{Jobs: 8, Run: run}
	results, err := ex.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Run.ExecCPUCycles != 100+int64(i) {
			t.Fatalf("result %d out of order: %+v", i, r.Run)
		}
		if r.Workload != fmt.Sprintf("wl%d", i) {
			t.Fatalf("result %d labelled %q", i, r.Workload)
		}
	}
}

func TestFirstErrorCancelsRest(t *testing.T) {
	plan := &Plan{Name: "err"}
	for i := int64(0); i < 8; i++ {
		add(plan, fmt.Sprintf("wl%d", i), "cfg", fakeCfg(i))
	}
	boom := errors.New("boom")
	var started atomic.Int64
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		started.Add(1)
		if cfg.Seed == 2 {
			return nil, boom
		}
		select { // simulate honoring cancellation like sim.RunContext
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		return &sim.Result{}, nil
	}
	ex := Executor{Jobs: 2, Run: run}
	if _, err := ex.Execute(context.Background(), plan); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestExternalCancellation(t *testing.T) {
	plan := &Plan{Name: "cancel"}
	for i := int64(0); i < 4; i++ {
		add(plan, fmt.Sprintf("wl%d", i), "cfg", fakeCfg(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		cancel() // first run pulls the plug on everything
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ex := Executor{Jobs: 2, Run: run}
	if _, err := ex.Execute(ctx, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBaselineErrorPropagates(t *testing.T) {
	plan := &Plan{Name: "baseerr"}
	plan.AddPair("wl", "cfg", fakeCfg(1), fakeCfg(2))
	boom := errors.New("baseline boom")
	run := func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == 2 {
			return nil, boom
		}
		return &sim.Result{}, nil
	}
	ex := Executor{Jobs: 4, Run: run}
	if _, err := ex.Execute(context.Background(), plan); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestEventAccounting(t *testing.T) {
	run, _ := countingRun(t)
	plan := &Plan{Name: "events"}
	for i := int64(0); i < 4; i++ {
		plan.AddPair(fmt.Sprintf("wl%d", i%2), "cfg", fakeCfg(100+i%3), fakeCfg(1000+i%2))
	}
	var events []Event // appended without locking: the executor serializes sink calls
	ex := Executor{Jobs: 4, Run: run, Sink: SinkFunc(func(e Event) { events = append(events, e) })}
	if _, err := ex.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	wantTotal := 3 + 2 // unique keys: variants 100..102, baselines 1000 and 1001
	if len(events) != wantTotal {
		t.Fatalf("%d events, want %d", len(events), wantTotal)
	}
	var baselines int
	for i, e := range events {
		if e.Plan != "events" || e.Total != wantTotal {
			t.Fatalf("event %d mislabelled: %+v", i, e)
		}
		if e.Done != i+1 || e.Pending != wantTotal-(i+1) {
			t.Fatalf("event %d accounting wrong: %+v", i, e)
		}
		if e.Kind == KindBaseline {
			baselines++
		}
	}
	if baselines != 2 {
		t.Fatalf("%d baseline events, want 2", baselines)
	}
}

func TestConfigKeyDistinguishesConfigs(t *testing.T) {
	a, err := ConfigKey(fakeCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConfigKey(fakeCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different seeds must yield different keys")
	}
	a2, err := ConfigKey(fakeCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if a != a2 {
		t.Fatal("identical configs must yield identical keys")
	}
	cfg := fakeCfg(1)
	cfg.DRAM.Mech.EarlyAccess = !cfg.DRAM.Mech.EarlyAccess
	c, err := ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("mechanism toggle must change the key")
	}
}

func TestRunStatsThroughput(t *testing.T) {
	s := RunStats{Wall: 2 * time.Second, MemCycles: 8_000_000, Retired: 2_000_000}
	if got := s.CyclesPerSec(); got != 4_000_000 {
		t.Fatalf("CyclesPerSec = %g", got)
	}
	if got := s.InstsPerSec(); got != 1_000_000 {
		t.Fatalf("InstsPerSec = %g", got)
	}
	if (RunStats{}).CyclesPerSec() != 0 || (RunStats{}).InstsPerSec() != 0 {
		t.Fatal("zero wall must not divide by zero")
	}
}

// TestExecuteRealSim smoke-tests the executor against the real simulator
// at a tiny budget: baseline memoized, deterministic vs the serial path.
func TestExecuteRealSim(t *testing.T) {
	mk := func(insts int64) sim.Config {
		cfg := sim.DefaultConfig("tigr")
		cfg.InstsPerCore = insts
		return cfg
	}
	plan := &Plan{Name: "real"}
	plan.AddPair("tigr", "same-cfg-a", mk(20_000), mk(10_000))
	plan.AddPair("tigr", "same-cfg-b", mk(20_000), mk(10_000))

	serial := Executor{Jobs: 1}
	pooled := Executor{Jobs: 4}
	rs, err := serial.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := pooled.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Base != rs[1].Base || rp[0].Base != rp[1].Base {
		t.Fatal("identical baselines must be shared")
	}
	for i := range rs {
		if rs[i].Run.ExecCPUCycles != rp[i].Run.ExecCPUCycles ||
			rs[i].Base.ExecCPUCycles != rp[i].Base.ExecCPUCycles {
			t.Fatalf("serial and pooled runs disagree at %d", i)
		}
		if rs[i].Stats.MemCycles == 0 || rs[i].Stats.Wall <= 0 {
			t.Fatalf("missing instrumentation: %+v", rs[i].Stats)
		}
	}
}
