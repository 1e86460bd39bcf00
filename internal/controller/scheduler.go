// The per-cycle scheduling pass: refresh management, write-drain mode and
// FR-FCFS command selection. One command per channel per cycle.
//
// The pass is also the source of the event engine's skip horizon. Every
// decision that depends on the cycle is a comparison of one absolute time
// against now — a device Earliest* gate, a refresh due time, a refresh
// window's end — and every such comparison goes through due, which folds
// a time still ahead into the walk's wake time. A walk that issues
// nothing has therefore recorded the first cycle at which any of its
// decisions can come out differently (see nextevent.go).

package controller

import (
	"math"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/obs"
)

// Tick runs one memory cycle: it updates refresh obligations and issues at
// most one DRAM command per channel. Completed reads become Completions
// (fetch them with DrainCompletions). The walk leaves its wake time and
// the stall counters it charged behind for NextEventAt and ReplaySkipped.
func (c *Controller) Tick(now int64) {
	if c.pendingMode != nil {
		// A mode switch is draining: no new work until the MRS issues,
		// and no memo (the request dropped it) — the drain is short and
		// every cycle of it steps.
		c.tickModeChange(now)
		return
	}
	c.walkedAt, c.wake = now, math.MaxInt64
	c.blocked = c.blocked[:0]
	for ch := 0; ch < c.geom.Channels; ch++ {
		c.tickChannel(ch, now)
	}
}

// due reports whether something first possible at cycle t may happen at
// now; a t still ahead is folded into the walk's wake time instead.
func (c *Controller) due(t, now int64) bool {
	if t <= now {
		return true
	}
	if t < c.wake {
		c.wake = t
	}
	return false
}

// charge bumps one stall-attribution counter and records it, so that
// ReplaySkipped can repeat the charge for every cycle this walk stands
// for. A walk charges at most one counter per bank and pass, two passes
// per channel: the scratch is sized for that in New and never grows.
func (c *Controller) charge(ctr *int64) {
	*ctr++
	c.blocked = append(c.blocked, ctr) // preallocated to 2x banks, the most one walk can charge
}

// tickChannel schedules one channel for one cycle.
func (c *Controller) tickChannel(ch int, now int64) {
	c.updateRefreshDebt(ch, now)
	c.updateDrainMode(ch, now)

	// In priority order: mandatory refreshes preempt everything on their
	// rank; then column accesses / activates / precharges for the current
	// flow; then an opportunistic refresh when a rank has debt and nothing
	// else ran; then close-page housekeeping.
	if c.serviceForcedRefresh(ch, now) || c.scheduleRequests(ch, now) ||
		c.serviceOpportunisticRefresh(ch, now) || c.scheduleHousekeeping(ch, now) {
		c.wake = now + 1 // a command issued: the next cycle sees new state
	}
}

// updateRefreshDebt accrues one refresh obligation per elapsed tREFI.
func (c *Controller) updateRefreshDebt(ch int, now int64) {
	for r := 0; r < c.geom.Ranks; r++ {
		rr := &c.refresh[ch*c.geom.Ranks+r]
		for c.due(rr.NextDue, now) {
			rr.Debt++
			rr.NextDue += c.tREFI
			c.obs.ObserveRefreshDebt(rr.Debt)
		}
	}
}

// updateDrainMode flips the channel between read-priority and write-drain
// using the Table 4 watermarks. The one flag that is not a fixed point of
// drainNext is a drain with the read queue empty and 0 < writes ≤
// LowWatermark: it alternates every cycle. A walk in its off-phase (flag
// false) has not seen the write pass the next cycle runs, so it wakes at
// now+1. A walk in its on-phase (flag true) stands for both phases: the
// off-phase walk makes the same refresh and housekeeping decisions on the
// same state and drops only the write pass, so before this walk's wake
// it issues nothing and charges nothing. ReplaySkipped charges its write
// pass every other cycle and replays the flips.
func (c *Controller) updateDrainMode(ch int, now int64) {
	c.drain[ch] = c.drainNext(c.drain[ch], len(c.readQ[ch]), len(c.writeQ[ch]))
	if !c.drain[ch] && c.toggles(ch) {
		c.wake = now + 1
	}
}

// toggles reports whether the channel's drain flag is not a fixed point
// of drainNext: the next tick flips it.
func (c *Controller) toggles(ch int) bool {
	return c.drainNext(c.drain[ch], len(c.readQ[ch]), len(c.writeQ[ch])) != c.drain[ch]
}

// drainNext is the drain flag's transition function over the queue
// lengths.
func (c *Controller) drainNext(cur bool, nr, nw int) bool {
	switch {
	case nw >= c.cfg.HighWatermark:
		return true
	case cur && nw <= c.cfg.LowWatermark:
		return false
	case !cur && nr == 0 && nw > 0:
		// Nothing better to do: drain writes while the read queue is empty.
		return true
	case cur && nr > 0 && nw == 0:
		return false
	}
	return cur
}

// issueRefresh pushes one rank toward a REF: precharges open banks, then
// issues the refresh once legal. Returns true if a command slot was used.
func (c *Controller) issueRefresh(ch, r int, now int64) bool {
	rr := &c.refresh[ch*c.geom.Ranks+r]
	// Precharge any open bank of the rank first, walking the rank's flat
	// bank indices (Address.BankID) and building an address only to issue.
	first := (ch*c.geom.Ranks + r) * c.geom.Banks
	for b := 0; b < c.geom.Banks; b++ {
		if c.dev.OpenRowAt(first+b) < 0 {
			continue
		}
		if t, ok := c.dev.EarliestPrechargeAt(first+b, now); ok && c.due(t, now) {
			c.dev.Precharge(core.Address{Channel: ch, Rank: r, Bank: b}, now)
			return true
		}
		return false // wait for tRAS etc.; slot not used
	}
	if t, ok := c.dev.EarliestRefresh(ch, r, now); !ok || !c.due(t, now) {
		return false
	}
	_, _ = c.dev.Refresh(ch, r, rr.Counter, now)
	rr.Counter = (rr.Counter + 1) % mcr.RefsPerWindow
	rr.Debt--
	return true
}

// serviceForcedRefresh issues refreshes whose debt reached the JEDEC
// postponement limit. A skipped REF (Refresh-Skipping) retires debt without
// consuming the command slot, so the loop keeps going after one.
func (c *Controller) serviceForcedRefresh(ch int, now int64) bool {
	for r := 0; r < c.geom.Ranks; r++ {
		rr := &c.refresh[ch*c.geom.Ranks+r]
		if rr.Debt < c.cfg.MaxRefreshDebt {
			continue
		}
		before := rr.Debt
		if c.issueRefresh(ch, r, now) {
			c.stats.ForcedRefreshes++
			return true
		}
		if rr.Debt < before {
			return true // a zero-cost skipped REF retired the debt
		}
	}
	return false
}

// serviceOpportunisticRefresh retires refresh debt early when the rank has
// no queued work, keeping forced (stall-inducing) refreshes rare.
func (c *Controller) serviceOpportunisticRefresh(ch int, now int64) bool {
	for r := 0; r < c.geom.Ranks; r++ {
		rr := &c.refresh[ch*c.geom.Ranks+r]
		if rr.Debt <= 0 || c.rankHasWork(ch, r) {
			continue
		}
		if c.issueRefresh(ch, r, now) {
			return true
		}
	}
	return false
}

// rankHasWork reports whether any queued request targets the rank.
func (c *Controller) rankHasWork(ch, r int) bool {
	for i := range c.readQ[ch] {
		if c.readQ[ch][i].Addr.Rank == r {
			return true
		}
	}
	for i := range c.writeQ[ch] {
		if c.writeQ[ch][i].Addr.Rank == r {
			return true
		}
	}
	return false
}

// scheduleRequests runs the FR-FCFS (or FCFS) pass over the active queue
// (writes in drain mode, reads otherwise, with a fallback to the other
// queue when the active one is empty). Returns true if a command issued.
func (c *Controller) scheduleRequests(ch int, now int64) bool {
	primary, secondary := &c.readQ[ch], &c.writeQ[ch]
	if c.drain[ch] {
		primary, secondary = secondary, primary
	}
	if c.schedulePass(ch, primary, now) {
		return true
	}
	// The inactive queue may still use the slot for its own row hits when
	// the active queue is completely blocked; USIMM does the same to avoid
	// dead cycles. Only reads sneak in (writes wait for drain mode).
	if !c.drain[ch] || len(*secondary) == 0 {
		return false
	}
	return c.schedulePass(ch, secondary, now)
}

// schedulePass tries, in priority order: a ready row-hit column access,
// then (FR-FCFS) the oldest request's bank-preparation command. For FCFS
// only the oldest request may issue anything.
func (c *Controller) schedulePass(ch int, qp *[]request, now int64) bool {
	q := *qp
	if len(q) == 0 {
		return false
	}
	if c.cfg.Scheduler == FCFS {
		return c.advanceRequest(qp, 0, now)
	}
	// One walk in age order serves both priorities. First-ready: the
	// requests of one queue that hit in one bank share every gate of their
	// column command (bank, rank, channel, bus owner), so only the oldest
	// of them is probed — the others would compute the same time. Then
	// FCFS: the oldest request of each bank, unless it hits, is remembered
	// as the bank's preparation candidate (PRE for a conflict, ACT for a
	// closed bank), to be tried oldest-first if no column access issued.
	// Both the per-bank marks and the candidate list live in preallocated
	// scratch — this pass runs every cycle, so it must not allocate. A
	// bank marked seen has its candidate and may still have a hit to
	// probe; one marked settled has nothing left to find.
	const seen, settled = 1, 2
	perChannel := c.geom.Ranks * c.geom.Banks
	clear(c.touched[ch*perChannel : (ch+1)*perChannel])
	prep := c.touched[len(c.touched):len(c.touched)]
	for i := range q {
		req := &q[i]
		mark := c.touched[req.Bank]
		if mark == settled {
			continue
		}
		switch {
		case c.dev.OpenRowAt(req.Bank) < 0:
			// Closed: no request hits, the oldest one activates.
			c.touched[req.Bank] = settled
		case c.dev.IsRowHitAt(req.Bank, req.Addr.Row):
			c.touched[req.Bank] = settled
			if c.tryColumn(qp, i, now) {
				return true
			}
			continue
		case mark == seen:
			continue
		default:
			c.touched[req.Bank] = seen
		}
		// The bank's oldest request, and it does not hit.
		prep = append(prep, int32(i)) // preallocated to one entry per bank, and a bank is listed once per pass
	}
	for _, i := range prep {
		if c.prepareBank(&q[i], now) {
			return true
		}
	}
	return false
}

// advanceRequest moves a single request forward by whatever command it
// needs next (FCFS path).
func (c *Controller) advanceRequest(qp *[]request, i int, now int64) bool {
	req := &(*qp)[i]
	if c.dev.IsRowHitAt(req.Bank, req.Addr.Row) {
		return c.tryColumn(qp, i, now)
	}
	return c.prepareBank(req, now)
}

// tryColumn issues the RD/WR of the row-hitting request at position i of
// its queue if legal, retiring it.
func (c *Controller) tryColumn(qp *[]request, i int, now int64) bool {
	q := *qp
	write := q[i].Kind == core.OpWrite
	if !c.due(c.dev.EarliestColumnAt(q[i].Bank, write, now), now) {
		return false
	}
	c.stats.RowHits++
	c.obs.RowHit()
	// Copy before removal: it shifts later requests into the slot.
	r := q[i]
	*qp = append(q[:i], q[i+1:]...) // in-place remove idiom: the result is strictly shorter, never reallocates
	if write {
		c.dev.Write(r.Addr, now)
		c.stats.WritesDone++
	} else {
		done := c.dev.Read(r.Addr, now)
		c.completions = append(c.completions, Completion{ID: r.ID, CoreID: int(r.CoreID), DoneAt: done, ArriveAt: r.ArriveAt}) // DrainCompletions recycles this slice's capacity; steady state appends in place
		c.stats.ReadsDone++
		c.stats.TotalReadLatency += done - r.ArriveAt
		c.obs.ObserveRead(obs.AttributeRead(r.ArriveAt, r.PreAt, r.ActAt, now, done, r.RasBlocked, r.RefBlocked))
		if _, inMCR := c.dev.RowParams(r.Addr.Row); inMCR {
			c.stats.MCRReads++
		}
	}
	c.postColumn(&r, now)
	return true
}

// postColumn applies the close-page policy after the column access of a
// (just retired) request.
func (c *Controller) postColumn(r *request, now int64) {
	if c.cfg.RowPolicy != ClosePage {
		return
	}
	if !c.rowWanted(r.Addr.Channel, r.Bank) && c.dev.CanPrecharge(r.Addr, now+1) {
		// Model auto-precharge: close next cycle without using a slot.
		c.dev.Precharge(r.Addr, now+1)
	}
}

// prepareBank issues PRE (row conflict) or ACT (closed bank) for a request
// that does not hit its bank's open row, stamping the request's
// stall-attribution markers. Blocked attempts before the request's own
// PRE/ACT are classified: refresh in flight on the rank counts toward
// tRFC, an open row still inside its tRAS/tWR window toward the tRAS
// tail; everything else stays queueing by default.
func (c *Controller) prepareBank(req *request, now int64) bool {
	if t, closed := c.dev.EarliestActivateAt(req.Bank, now); closed {
		if c.due(t, now) {
			c.dev.Activate(req.Addr, now)
			c.stats.RowMisses++
			c.obs.RowMiss()
			req.ActAt = now
			return true
		}
		if req.PreAt < 0 && req.ActAt < 0 && c.refreshInFlight(req, now) {
			c.charge(&req.RefBlocked)
		}
		return false
	}
	if t, _ := c.dev.EarliestPrechargeAt(req.Bank, now); c.due(t, now) {
		c.dev.Precharge(req.Addr, now)
		c.stats.RowConflicts++
		c.obs.RowConflict()
		req.PreAt = now
		return true
	}
	if req.PreAt < 0 {
		if c.refreshInFlight(req, now) {
			c.charge(&req.RefBlocked)
		} else {
			c.charge(&req.RasBlocked)
		}
	}
	return false
}

// refreshInFlight reports whether a refresh occupies the request's rank
// at now. The window's end is a wake time: it reclassifies the blocked
// slot.
func (c *Controller) refreshInFlight(req *request, now int64) bool {
	return !c.due(c.dev.RefreshBusyUntil(req.Addr.Channel, req.Addr.Rank), now)
}

// rowWanted reports whether any queued request of the channel targets the
// open row of a bank.
func (c *Controller) rowWanted(ch, bank int) bool {
	if c.dev.OpenRowAt(bank) < 0 {
		return false
	}
	for _, q := range [2][]request{c.readQ[ch], c.writeQ[ch]} {
		for i := range q {
			if q[i].Bank == bank && c.dev.IsRowHitAt(bank, q[i].Addr.Row) {
				return true
			}
		}
	}
	return false
}

// scheduleHousekeeping closes pages nobody wants under the close-page
// policy (open-page leaves rows alone). Returns true if a PRE issued.
func (c *Controller) scheduleHousekeeping(ch int, now int64) bool {
	if c.cfg.RowPolicy != ClosePage {
		return false
	}
	for r := 0; r < c.geom.Ranks; r++ {
		for b := 0; b < c.geom.Banks; b++ {
			bank := (ch*c.geom.Ranks+r)*c.geom.Banks + b
			if c.dev.OpenRowAt(bank) < 0 || c.rowWanted(ch, bank) {
				continue
			}
			a := core.Address{Channel: ch, Rank: r, Bank: b}
			if t, ok := c.dev.EarliestPrecharge(a, now); ok && c.due(t, now) {
				c.dev.Precharge(a, now)
				return true
			}
		}
	}
	return false
}
