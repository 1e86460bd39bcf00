package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunContextCancel: a cancelled context must abort the main loop with
// the context's error instead of draining the instruction budget.
func TestRunContextCancel(t *testing.T) {
	cfg := DefaultConfig("tigr")
	cfg.InstsPerCore = 50_000_000 // far more than we are willing to wait for
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v, want a prompt abort", el)
	}
}

// TestRunContextDeadline: mid-run cancellation (not just pre-cancelled)
// must also reach the loop, on a memory-bound run and on an idle one. With
// nothing polling, the idle run takes a full step at only a few of the
// boundaries it passes and crosses the rest inside controller-only runs,
// which must check the context themselves; at the largest budget Validate
// accepts it would otherwise run for seconds.
func TestRunContextDeadline(t *testing.T) {
	for _, tc := range []struct {
		workload string
		insts    int64
	}{
		{"tigr", 50_000_000},
		{"idle", maxInstsPerCore},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			cfg := DefaultConfig(tc.workload)
			cfg.InstsPerCore = tc.insts
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := RunContext(ctx, cfg)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if el := time.Since(start); el > 5*time.Second {
				t.Fatalf("cancellation took %v, want a prompt abort", el)
			}
		})
	}
}

// TestControllerRunChecksCancellation: with nothing polling, most poll
// boundaries fall inside controller-only runs, where no full step checks
// the context, so the run must check it itself. The loop is driven by hand
// on the idle workload with a cancelled context: no run may cover a
// boundary without returning the context's error.
func TestControllerRunChecksCancellation(t *testing.T) {
	cfg := DefaultConfig("idle")
	cfg.InstsPerCore = 1_000_000
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for mem := int64(0); ; mem++ {
		if s.ls.step(mem) {
			t.Fatal("the run finished without a controller-only run reaching a boundary")
		}
		end, err := s.ls.runController(ctx, mem)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return
		}
		if b := nextPoll(mem); b <= end {
			t.Fatalf("the run over cycles %d..%d crossed boundary %d without checking the context", mem+1, end, b)
		}
		mem = end
	}
}

// TestRunStatsPopulated: every finished run must carry the executor's
// instrumentation inputs.
func TestRunStatsPopulated(t *testing.T) {
	cfg := DefaultConfig("tigr")
	cfg.InstsPerCore = 20_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemCycles <= 0 {
		t.Fatalf("MemCycles = %d, want > 0", res.MemCycles)
	}
	if res.RetiredInsts != cfg.InstsPerCore {
		t.Fatalf("RetiredInsts = %d, want %d", res.RetiredInsts, cfg.InstsPerCore)
	}
	if res.Wall <= 0 {
		t.Fatalf("Wall = %v, want > 0", res.Wall)
	}
	if res.MemCycles*4 < res.ExecCPUCycles {
		t.Fatalf("MemCycles %d inconsistent with ExecCPUCycles %d", res.MemCycles, res.ExecCPUCycles)
	}
}
