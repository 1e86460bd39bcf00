// The event-driven engine: after each active step the loop asks every
// clock domain for the earliest cycle at which its state can change —
// the amortized poll/checkpoint boundary, the next pending read
// completion, the next CPU retirement/fetch milestone (cpu.SkipBound)
// and the controller's next possible command or refresh obligation
// (controller.NextEventAt, the wake time the scheduling walk of this
// very step recorded) — and jumps straight to the minimum, replaying the
// skipped span into the power/idle accounting in closed form. Every
// candidate is conservative (never later than the true first state
// change), so the skipped cycles are provably inert and the results stay
// byte-identical to the stepped path; the parity tests pin that across
// all four mechanism backends.
//
// The same bound works inside an active step (sim.go, step): a core whose
// SkipBound covers the memory cycle's four CPU cycles is replayed by one
// cpu.FastForward instead of four Cycle calls, a parked or finished one
// is not called at all, and only the cores that can reach the controller
// join the (CPU cycle, core) nest. Stepped makes every call, so each
// parity run is also a differential of the core replay against stepping.

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

// skipTarget returns the next memory cycle the loop must execute as a
// real step. A result of mem+1 means nothing is skippable; anything
// later means cycles mem+1..target-1 are provably inert and applySkip
// may replay them in closed form. Called only after step(mem) returned
// false.
func (ls *loopState) skipTarget(mem int64) int64 {
	if !ls.Warmed {
		return mem + 1 // warmup tracking needs per-cycle retirement checks
	}
	// The O(1) bound first: after a step that issued a command the
	// controller allows no skip at all, and the per-core bounds below
	// could only agree.
	ctrlNext := ls.ctrl.NextEventAt(mem)
	if ctrlNext == mem+1 {
		return mem + 1
	}
	// The amortized poll boundary: cancellation checks, resilience polls
	// and checkpoint writes must fire at exactly the cycles the stepped
	// loop fires them.
	target := ((mem >> 12) + 1) << 12
	if len(ls.Pending) > 0 {
		target = min(target, ls.Pending[0].DoneAt)
	}
	allDone := true
	for _, c := range ls.cores {
		if c.Done() {
			continue
		}
		allDone = false
		b := c.SkipBound()
		if b == 0 {
			return mem + 1 // this core must step the next cycle
		}
		if !parked(b) {
			target = min(target, mem+1+b/int64(core.CPUCyclesPerMemCycle))
		}
		// A parked core contributes no candidate: the span is capped by
		// the pending completion or controller event instead.
	}
	if allDone {
		// Terminal check: once every core is done and nothing is in
		// flight, the very next step ends the run — never skip over it. (A
		// done core has an empty ROB, so "all done with reads in flight"
		// cannot occur.)
		r, w := ls.ctrl.Pending()
		if r == 0 && w == 0 && len(ls.Pending) == 0 {
			return mem + 1
		}
	}
	return min(target, ctrlNext)
}

// applySkip replays the inert span mem+1..mem+n in closed form: each
// live core fast-forwards (one drain of its ROB head, one push at its
// tail, whatever the shape of the window), the controller
// bumps the blocked-request stall counters, and the per-rank power
// accounting (active/standby/power-down plus the idle streaks driving
// power-down entry) advances exactly as n stepped cycles would have
// advanced it.
func (ls *loopState) applySkip(mem, n int64) {
	cpuSpan := n * int64(core.CPUCyclesPerMemCycle)
	for _, c := range ls.cores {
		if !c.Done() {
			c.FastForward(ls.CPUCycle, cpuSpan)
		}
	}
	ls.CPUCycle += cpuSpan
	ls.ctrl.ReplaySkipped(mem, n)
	from := mem + 1
	for ch := 0; ch < ls.geom.Channels; ch++ {
		for r := 0; r < ls.geom.Ranks; r++ {
			idx := ch*ls.geom.Ranks + r
			busyUntil, anyOpen := ls.dev.RankSpanState(ch, r)
			if anyOpen {
				// Open rows stay open across an inert span: busy throughout.
				ls.IdleStreak[idx] = 0
				ls.ActiveCyc += n
				continue
			}
			// A refresh window is the only other busy source, and it
			// occupies the span's prefix [from, busyUntil).
			busy := busyUntil - from
			if busy < 0 {
				busy = 0
			}
			if busy > n {
				busy = n
			}
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
	ls.SkippedCycles += n
}
