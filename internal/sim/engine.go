// The event-driven engine: after each full step the loop computes the
// core horizon once — the earliest of the amortized poll/checkpoint
// boundary, the next pending read completion and each live core's next
// retirement/fetch milestone (cpu.SkipBound) — and runs the memory side
// alone up to it. Of those cycles it executes only the ones the
// controller can act at (controller.NextEventAt, the wake time the
// scheduling walk of the previous Tick recorded): the real Tick, the
// completion drain into the pending heap (a new completion pulls the
// horizon in) and power. The inert cycles between them are replayed by
// controller.ReplaySkipped and one closed-form power span. When the run
// reaches the horizon each live core is replayed up to it by a single
// cpu.FastForward, and the horizon moves out if their new bounds allow.
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
	if e == Stepped {
		return "stepped"
	}
	return "event-driven"
}

// parked reports whether a cpu.SkipBound answer is the saturated one: no
// Cycle can change the core until an external completion (or ever, once
// it is done). The threshold leaves headroom so that a finite bound can
// be added to a cycle number without overflow.
func parked(b int64) bool { return b >= math.MaxInt64/8 }

// coreHorizon returns the first memory cycle after mem at which a core
// may act or must be handed a completion: the earliest of the next poll
// boundary, the first pending completion and each live core's
// mem+1+SkipBound/4. Until then no core can enqueue, stall, read its
// trace or retire its last instruction, and none is handed a completion.
// A result of mem+1 means there is no such span: warm-up still tracks
// retirement cycle by cycle, a core must step the next cycle, or the run
// has drained and the next step ends it. Called after step(mem) returned
// false, and by runController once the cores are replayed through mem.
func (ls *loopState) coreHorizon(mem int64) int64 {
	if !ls.Warmed {
		return mem + 1
	}
	// The amortized poll boundary: cancellation checks, resilience polls
	// and checkpoint writes must fire at exactly the cycles the stepped
	// loop fires them, on the full step that follows them.
	h := ((mem >> 12) + 1) << 12
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
// by one FastForward each; if their new bounds reach further, the
// horizon moves out and the run goes on.
//
// This is exact for the reason a skipped span is: inside the horizon no
// core enqueues, stalls or receives a completion, and the controller
// never reads core state, so its real Ticks commute with the cores'
// replay. When every core is done the horizon is the poll boundary or
// the cycle after the last write drains, whichever comes first.
func (ls *loopState) runController(mem int64) int64 {
	h := ls.coreHorizon(mem)
	if h == mem+1 {
		return mem
	}
	// t is the controller's last walk, cpuAt the last cycle the cores are
	// replayed through, and power is accounted up to from-1. The full
	// step at mem accounted its own cycle, and from then on each span
	// starts at the controller cycle itself: its Tick's state is what the
	// span's first cycle and the inert ones after it see.
	t, cpuAt, from := mem, mem, mem+1
	for {
		next := min(ls.ctrl.NextEventAt(t), h)
		if next == h {
			span := (h - 1 - cpuAt) * int64(core.CPUCyclesPerMemCycle)
			for _, c := range ls.cores {
				if !c.Done() {
					c.FastForward(ls.CPUCycle, span)
				}
			}
			ls.CPUCycle += span
			cpuAt = h - 1
			if further := ls.coreHorizon(cpuAt); further > h {
				h = further
				continue
			}
		}
		ls.ctrl.ReplaySkipped(t, next-t-1)
		ls.SkippedCycles += next - t - 1
		ls.powerSpan(from, next-from)
		if next == h {
			return h - 1
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
