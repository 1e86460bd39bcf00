// Time-skipping support for the event-driven engine: a conservative
// bound on how long a core provably cannot reach the memory system (no
// enqueue, no trace record consumed, no final retirement), whatever the
// shape of its ROB, and an exact closed-form replay of any span within
// that bound.
//
// The contract both functions share: for any k within SkipBound(), and
// with no Complete call inside the span, the state after
// FastForward(now, k) is byte-identical to calling Cycle k times from
// now. The randomised differential in skip_test.go pins that on the core
// alone, over ROB shapes the paper's configuration never produces; the
// parity tests in internal/sim pin it in situ, where the event engine
// replaces every Cycle call it can by this replay. The bound is
// conservative (it may be shorter than the true quiet span), never
// optimistic.

package cpu

import (
	"math"

	"repro/internal/core"
)

// SkipBound returns the number of upcoming CPU cycles for which Cycle is
// guaranteed not to interact with the memory system (no enqueue, no
// FetchStall), not to consume a trace record, and not to retire the
// final instruction. A finite bound holds whether or not reads complete
// meanwhile: both of its limits assume the head free. math.MaxInt64 means
// the core is parked or finished: every Cycle is a pure no-op until an
// external Complete call, so the caller's span is bounded elsewhere (the
// pending-completion heap). Zero means the next cycle must be stepped
// normally.
func (c *Core) SkipBound() int64 {
	if c.Done() {
		return math.MaxInt64
	}
	if c.sz > 0 && c.rob[c.head].ReadID >= 0 && !c.rob[c.head].Done &&
		(c.occupancy >= c.cfg.ROBSize || (!c.hasPending && c.gen.Exhausted())) {
		// Parked: a waiting read blocks the ROB head and fetch can make no
		// progress either (window full, or the trace is spent with nothing
		// buffered).
		return math.MaxInt64
	}
	// Fetch cannot reach the pending memory operation while fewer than
	// tailGap instructions have been admitted. k cycles admit at most
	// FetchWidth each, and at most the room the window has now plus what
	// retire frees, RetireWidth each; a blocked head only slows both.
	// Either limit alone keeps the operation out of reach, so the longer
	// of the two holds. With the trace spent and nothing pending, fetch
	// is quiescent forever.
	var fetchBound int64
	switch {
	case c.hasPending:
		short := int64(c.tailGap - 1)
		if short <= 0 {
			return 0 // the operation dispatches as soon as fetch runs
		}
		fetchBound = short / int64(c.cfg.FetchWidth)
		room := int64(c.cfg.ROBSize - c.occupancy)
		if b := (short - room) / int64(c.cfg.RetireWidth); b > fetchBound {
			fetchBound = b
		}
	case c.gen.Exhausted():
		fetchBound = math.MaxInt64
	default:
		return 0 // next fetch consumes a trace record
	}
	// Retiring at most RetireWidth per cycle keeps the core short of its
	// final instruction (and of the doneAt stamp) for this many cycles.
	retireBound := (c.totalInsts - 1 - c.retired) / int64(c.cfg.RetireWidth)
	if retireBound < fetchBound {
		return retireBound
	}
	return fetchBound
}

// FastForward advances the core by k CPU cycles starting at CPU cycle
// now, exactly as k Cycle calls would. It is only valid for k within
// SkipBound() and with no Complete call due inside the span — the caller
// (the sim engine) guarantees both, so no memory dispatch can occur and
// the pending gap never limits fetch.
//
// Past the pipeline fill and with FetchWidth >= RetireWidth the span has
// a closed form. Retirement: k cycles retire R = min(k·RetireWidth, P),
// P being the instructions ahead of the first waiting read — or, when no
// read waits, the whole window, which fetch refills at least as fast as
// retire drains it, so that R = k·RetireWidth. Fetch: each cycle admits
// what the window has room for, up to FetchWidth, and because room grows
// by at most RetireWidth <= FetchWidth a cycle the total is
// F = min(room + R, k·FetchWidth), all of it non-memory instructions
// merged into the tail run. On the ring that is one drain and one push.
// Behind a waiting read the order is free (the two ends of the window
// never meet), so the drain goes first and measures R. With no read
// waiting the head may eat into the very run being appended: the first
// cycle's drain goes first (it makes the room the push lands in, and
// leaves the tail entry in place because the window holds more than
// RetireWidth instructions), then the push, then the rest of the drain.
func (c *Core) FastForward(now, k int64) {
	if c.Done() {
		return
	}
	rw, fw := int64(c.cfg.RetireWidth), int64(c.cfg.FetchWidth)
	// Three shapes keep the real retire/fetch pair, one cycle at a time:
	// the pipeline still filling (retire is off), fetch narrower than
	// retire (the window can run dry mid-span), and a window with no
	// waiting read that one cycle's retirement empties (the next push
	// opens a new entry instead of merging into the tail).
	for k > 0 && (now < int64(c.cfg.PipelineDepth) || fw < rw || (c.waiting == 0 && int64(c.occupancy) <= rw)) {
		c.retire(now)
		c.fetch(now / int64(core.CPUCyclesPerMemCycle))
		now++
		k--
	}
	if k == 0 {
		return
	}
	room := int64(c.cfg.ROBSize - c.occupancy)
	if c.waiting > 0 {
		c.admit(room+c.drain(k*rw), k*fw)
		return
	}
	c.drain(rw)
	c.admit(room+k*rw, k*fw)
	c.drain((k - 1) * rw)
}

// admit fetches min(space, width) instructions of the pending record's
// non-memory gap into the tail run; nothing when no record is pending
// (the trace is spent).
func (c *Core) admit(space, width int64) {
	if !c.hasPending {
		return
	}
	n := int(min(space, width))
	c.pushNonMem(n)
	c.tailGap -= n
}
