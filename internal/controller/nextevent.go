// The event-driven engine's view of the scheduler: NextEventAt answers
// "through which cycle is every Tick provably a non-issuing pass?", and
// ReplaySkipped applies, in closed form, the only mutations those passes
// would have made — the stall-attribution counters on blocked requests.
//
// Neither re-derives anything: the walk that decided not to issue is the
// proof. During a span in which the CPU side is quiescent (no enqueues —
// the sim engine guarantees that separately) and no command issues, the
// controller's inputs are frozen: queue contents, open rows, drain flags,
// refresh debts and every device timing gate are constant. Tick(now)
// reached each of its decisions by comparing one absolute time with now
// (scheduler.go routes all of them through due): a rank's nextDue, the
// Earliest* gate of every command it probed — PRE-then-REF for a rank
// with refresh debt, the column access of each bank's oldest row hit
// (the younger hits of the bank share every gate with it), the ACT or
// PRE of the first request per bank, the PRE of an unwanted row under
// close-page — and the end of a refresh window that classifies a
// blocked slot as tRFC rather than tRAS. Every Earliest* gate is a max
// over frozen state, so "first legal at t" means "illegal strictly
// before t". Until the smallest of the times still ahead of now — the
// walk's wake time — each comparison comes out as it did at now, so each
// Tick takes the same branches, issues nothing and charges the same
// counters. Any issued command sets the wake time to now+1.
//
// The one input that is not frozen is a drain flag that toggles: with the
// read queue empty and 0 < writes ≤ LowWatermark it alternates every
// cycle. A walk in the off-phase (flag false) wakes at now+1. A walk in
// the on-phase (flag true) covers both: the off-phase Ticks at now+1,
// now+3, … make the walk's decisions minus its write pass, so they
// issue nothing and charge nothing, and the on-phase Ticks at now+2,
// now+4, … repeat the walk. ReplaySkipped charges that channel's write
// pass ⌊n/2⌋ times and, for an odd n, flips its flag.

package controller

// noWalk marks the memo invalid: no cycle equals it.
const noWalk = -1

// NextEventAt returns the earliest cycle strictly after now at which
// Tick could do anything beyond the blocked-counter bookkeeping that
// ReplaySkipped reproduces: the wake time Tick(now) recorded. Without
// that walk to stand on — no Tick(now) yet, a request enqueued since, an
// MRS drain in progress or just requested — it answers now+1 (no
// skippable span), which is always safe.
func (c *Controller) NextEventAt(now int64) int64 {
	if c.walkedAt != now {
		return now + 1
	}
	return c.wake
}

// ReplaySkipped applies the mutations of n inert Tick passes (cycles
// now+1 .. now+n) in closed form: every stall-attribution counter the
// walk at now charged is charged n more times, one a toggling channel
// charged ⌊n/2⌋ more times, and an odd n flips the toggling channels'
// drain flags. Valid only for spans NextEventAt(now) approved.
func (c *Controller) ReplaySkipped(now, n int64) {
	if n <= 0 {
		return
	}
	if now+n >= c.NextEventAt(now) {
		// Only an engine bug gets here, and the recorded counters may by
		// now point at requests that moved or retired.
		panic("controller: ReplaySkipped over a span NextEventAt did not approve") //mcrlint:allow panicpolicy caller contract violation, never a runtime condition; replaying would corrupt the stall attribution silently
	}
	for _, ctr := range c.blocked {
		*ctr += n
	}
	for ch := range c.drain {
		if c.toggles(ch) {
			c.replayToggle(ch, n)
		}
	}
}

// replayToggle corrects the replay of n cycles for a channel the walk at
// now left in the on-phase of its drain toggle. Its write pass — the only
// pass it ran, its read queue being empty, so the only one that charged
// — runs again at now+2, now+4, …: ⌊n/2⌋ of the n cycles charged. The
// queues are frozen, so the counters of its write queue that the walk
// charged are still found among the recorded ones.
func (c *Controller) replayToggle(ch int, n int64) {
	q := c.writeQ[ch]
	for _, ctr := range c.blocked {
		for i := range q {
			if ctr == &q[i].RasBlocked || ctr == &q[i].RefBlocked {
				*ctr -= n - n/2
			}
		}
	}
	if n%2 == 1 {
		c.drain[ch] = !c.drain[ch]
	}
}
