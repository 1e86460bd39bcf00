// The event-driven engine: after each full step the loop computes the
// core horizon once — the earliest of the next pending read completion,
// each live core's next retirement/fetch milestone (cpu.SkipBound) and,
// when something polls there, the amortized poll/checkpoint boundary —
// and runs the memory side alone up to it. Of those cycles it executes
// only the ones the controller can act at (controller.NextEventAt, the
// wake time the scheduling walk of the previous Tick recorded): the real
// Tick, the completion drain into the pending heap (a new completion
// pulls the horizon in) and power. The inert cycles between them are
// replayed by controller.ReplaySkipped and one closed-form power span.
// When the run reaches the horizon each live core is replayed up to it by
// a single cpu.FastForward and handed the completions due there; if their
// new bounds still cover that cycle, the horizon moves out and the run
// goes on. So a full step (the cores' CPU cycles) is taken only at a
// cycle where some core acts, or at a boundary where resilience polls or
// a checkpoint may be written. Cancellation needs no full step: the run
// checks it wherever it crosses a boundary.
// Every bound is conservative (never later than the true first state
// change), and the controller never reads core state, so its real Ticks
// commute with the cores' replay and the results stay byte-identical to
// the stepped path; the parity tests pin that across all four mechanism
// backends.
//
// The same bound works inside a full step (sim.go, step): a core whose
// SkipBound covers the memory cycle's four CPU cycles is replayed by one
// cpu.FastForward instead of four Cycle calls, a parked or finished one
// is not called at all, and only the cores that can reach the controller
// join the (CPU cycle, core) nest. Stepped makes every call and keeps
// its per-cycle power switch, so each parity run is also a differential
// of the core replay and of the controller-only runs against stepping.

package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
)

// Engine selects the cycle-advancement strategy of the run loop.
type Engine int

// Supported engines. EventDriven is the zero value: parity with the
// stepped path is pinned in CI, so skipping is the default.
const (
	// EventDriven steps active cycles and jumps over provably inert
	// spans (the fast path).
	EventDriven Engine = iota
	// Stepped forces the classic cycle-by-cycle loop (the reference
	// path the parity tests compare against).
	Stepped
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EventDriven:
		return "event-driven"
	case Stepped:
		return "stepped"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// pollEvery is the amortized poll period in memory cycles: the run loop
// checks cancellation, polls resilience and writes checkpoints at the
// multiples of it.
const pollEvery = 1 << 12

// nextPoll returns the first poll boundary after mem.
func nextPoll(mem int64) int64 { return mem&^(pollEvery-1) + pollEvery }

// maxMemCycles is the runaway guard: a run still going past it fails.
const maxMemCycles = int64(4) << 32

// parked reports whether a cpu.SkipBound answer is the saturated one: no
// Cycle can change the core until an external completion (or ever, once
// it is done). The threshold leaves headroom so that a finite bound can
// be added to a cycle number without overflow.
func parked(b int64) bool { return b >= math.MaxInt64/8 }

// coreHorizon returns the first memory cycle after mem at which a core
// may act or must be handed a completion: the earliest of the first
// pending completion, each live core's mem+1+SkipBound/4 and, when
// something polls there, the next poll boundary. Until then no core can
// enqueue, stall, read its trace or retire its last instruction, and none
// is handed a completion. A result of mem+1 means there is no such span:
// a core must step the next cycle, or the run has drained and the next
// step ends it. A warm-up crossing inside a span is found at the full
// step that ends it; no read arrives in between, so the reads counted are
// the stepped loop's. Called after step(mem) returned false, and by
// runController once the cores are replayed through mem.
func (ls *loopState) coreHorizon(mem int64) int64 {
	// Resilience polls and checkpoint writes must fire at exactly the
	// cycles the stepped loop fires them, on the full step that follows
	// them. Nothing else needs the boundary: runController checks
	// cancellation itself, and only the runaway guard bounds the run.
	h := maxMemCycles + 1
	if ls.polls {
		h = nextPoll(mem)
	}
	if len(ls.Pending) > 0 {
		h = min(h, ls.Pending[0].DoneAt)
	}
	for _, c := range ls.cores {
		if c.Done() {
			continue
		}
		b := c.SkipBound()
		if b == 0 {
			return mem + 1
		}
		// A parked core contributes no candidate: the completion that
		// releases it is either pending already or not yet issued, and
		// runController stops at it either way.
		if !parked(b) {
			h = min(h, mem+1+b/int64(core.CPUCyclesPerMemCycle))
		}
	}
	if ls.drained() {
		return mem + 1
	}
	return h
}

// drained reports whether the run is over: every core done and nothing
// queued or in flight. (A done core has an empty ROB, so "all done with
// reads in flight" cannot occur.)
func (ls *loopState) drained() bool {
	for _, c := range ls.cores {
		if !c.Done() {
			return false
		}
	}
	r, w := ls.ctrl.Pending()
	return r == 0 && w == 0 && len(ls.Pending) == 0
}

// runController runs the memory side alone from mem+1 up to the core
// horizon and returns the last cycle it covered; the loop's next full
// step is the one after it. Of those cycles only the ones
// controller.NextEventAt names are executed, and only their memory side:
// the real Tick, the completion drain into the pending heap (a new
// completion may pull the horizon in) and power. The inert cycles in
// between are replayed by ReplaySkipped, and the power of each
// controller cycle and the inert cycles after it by one closed-form span.
// When the run reaches the horizon the live cores are replayed up to it
// by one FastForward each and handed the completions due there, as the
// full step would hand them over first. If every live core's new bound
// still covers that cycle's four CPU cycles, the horizon moves out and
// the run goes on; the cycle itself is then the controller's alone, like
// any other in the run. A boundary where something polls is not crossed
// and its completions wait for the full step, so the poll and a
// checkpoint written there see the stepped loop's state. The run checks
// cancellation at every boundary it crosses and reports ctx's error.
//
// This is exact for the reason a skipped span is: inside the horizon no
// core enqueues, stalls or receives a completion, and the controller
// never reads core state, so its real Ticks commute with the cores'
// replay. When every core is done the horizon is the cycle after the
// last write drains (or a polled boundary, whichever comes first).
func (ls *loopState) runController(ctx context.Context, mem int64) (int64, error) {
	h := ls.coreHorizon(mem)
	if h == mem+1 {
		return mem, nil
	}
	// t is the controller's last walk, cpuAt the last cycle the cores are
	// replayed through, and power is accounted up to from-1. The full
	// step at mem accounted its own cycle, and from then on each span
	// starts at the controller cycle itself: its Tick's state is what the
	// span's first cycle and the inert ones after it see. poll is the
	// next boundary the run checks cancellation at.
	t, cpuAt, from, poll := mem, mem, mem+1, nextPoll(mem)
	for {
		next := min(ls.ctrl.NextEventAt(t), h)
		if next >= poll {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			poll = nextPoll(next)
		}
		if next == h {
			span := (h - 1 - cpuAt) * int64(core.CPUCyclesPerMemCycle)
			for _, c := range ls.cores {
				if !c.Done() {
					c.FastForward(ls.CPUCycle, span)
				}
			}
			ls.CPUCycle += span
			cpuAt = h - 1
			if !ls.polls || h&(pollEvery-1) != 0 {
				ls.deliver(h)
			}
			if further := ls.coreHorizon(cpuAt); further > h {
				h = further
				continue
			}
		}
		ls.ctrl.ReplaySkipped(t, next-t-1)
		ls.SkippedCycles += next - t - 1
		ls.powerSpan(from, next-from)
		if next == h {
			return h - 1, nil
		}
		t, from = next, next
		ls.ctrl.Tick(t)
		for _, comp := range ls.ctrl.DrainCompletions() {
			ls.observeRead(comp)
			pushCompletion(&ls.Pending, comp)
		}
		// A read completes after its issue cycle (tCAS + tBURST), so the
		// head is due after t; were it due at t, handing it over at the
		// start of t+1 would be the same, nothing touching the core in
		// between.
		if len(ls.Pending) > 0 {
			h = min(h, max(ls.Pending[0].DoneAt, t+1))
		}
		if ls.drained() {
			h = t + 1
		}
	}
}

// powerSpan accounts the per-rank power of the n cycles from..from+n-1
// in closed form, exactly as n stepped cycles would have, for a span in
// which no command issues: active/standby/power-down plus the idle
// streaks driving power-down entry.
func (ls *loopState) powerSpan(from, n int64) {
	if n <= 0 {
		return
	}
	for ch := 0; ch < ls.geom.Channels; ch++ {
		for r := 0; r < ls.geom.Ranks; r++ {
			idx := ch*ls.geom.Ranks + r
			busyUntil, anyOpen := ls.dev.RankSpanState(ch, r)
			if anyOpen {
				// Open rows stay open across the span: busy throughout.
				ls.IdleStreak[idx] = 0
				ls.ActiveCyc += n
				continue
			}
			// A refresh window is the only other busy source, and it
			// occupies the span's prefix [from, busyUntil).
			busy := min(max(busyUntil-from, 0), n)
			ls.ActiveCyc += busy
			if busy > 0 {
				ls.IdleStreak[idx] = 0
			}
			idle := n - busy
			if idle == 0 {
				continue
			}
			// The streak counts standby cycles until it saturates at the
			// power-down threshold, then freezes while the rank sleeps —
			// exactly the stepped switch, summed.
			sb := min(max(powerDownCycles-int64(ls.IdleStreak[idx]), 0), idle)
			ls.StandbyCyc += sb
			ls.PDCyc += idle - sb
			ls.IdleStreak[idx] += int(sb)
		}
	}
}
