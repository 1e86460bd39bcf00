// Command legality checks and issue bookkeeping. The controller calls
// CanActivate/CanRead/... to probe and then the matching Issue method; the
// device enforces every timing constraint and panics on an illegal issue
// (a controller bug, not a runtime condition).

package dram

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/obs"
)

// fawGate returns the earliest cycle a new ACT may issue to the rank under
// the rolling four-activate window.
func (r *rank) fawGate(tFAW int) int64 {
	oldest := r.ActWindow[r.ActWindowAt] // window holds the last 4 ACT times
	return oldest + int64(tFAW)
}

func (r *rank) recordAct(t int64) {
	r.ActWindow[r.ActWindowAt] = t
	r.ActWindowAt = (r.ActWindowAt + 1) % int32(len(r.ActWindow))
}

// The timing gates have one implementation each, indexed by the flattened
// bank (core.Address.BankID) the scheduler caches per request; the
// Address forms and the Can* predicates wrap them.

// EarliestActivateAt returns the first cycle >= now at which an ACT to
// the bank would be legal, and whether the bank is in a state that allows
// it at all (closed).
func (d *Device) EarliestActivateAt(bank int, now int64) (int64, bool) {
	b, rk := &d.banks[bank], &d.ranks[bank>>d.bankShift]
	if b.OpenRow >= 0 {
		return 0, false
	}
	t := max(now, b.NextAct, rk.NextAct, rk.fawGate(d.tim.Normal.TFAW), rk.RefreshBusyUntil)
	return t, true
}

// EarliestActivate is EarliestActivateAt for the bank of addr.
func (d *Device) EarliestActivate(a core.Address, now int64) (int64, bool) {
	return d.EarliestActivateAt(a.BankID(d.cfg.Geom), now)
}

// CanActivate reports whether ACT to addr is legal at cycle now.
func (d *Device) CanActivate(a core.Address, now int64) bool {
	t, ok := d.EarliestActivate(a, now)
	return ok && t <= now
}

// Activate opens the row (or its whole MCR) of addr at cycle now.
func (d *Device) Activate(a core.Address, now int64) {
	if !d.CanActivate(a, now) {
		panic(fmt.Sprintf("dram: illegal ACT %v at cycle %d", a, now))
	}
	bank := a.BankID(d.cfg.Geom)
	b, rk := &d.banks[bank], &d.ranks[bank>>d.bankShift]
	p, inMCR := d.RowParams(a.Row)
	// The backend's per-activation policy may charge extra cycles to this
	// ACT (a CLR conversion): the opened row absorbs them in every
	// restore-side gate.
	extra, ev, emitEv := d.mech.OnActivate(a.Row, now)
	b.OpenRow = a.Row
	b.OpenMCR = inMCR
	b.NextRead = max(b.NextRead, now+int64(p.TRCD)+extra)
	b.NextWrite = max(b.NextWrite, now+int64(p.TRCD)+extra)
	b.NextPre = max(b.NextPre, now+int64(p.TRAS)+extra)
	b.NextAct = max(b.NextAct, now+int64(p.TRC)+extra)
	rk.NextAct = max(rk.NextAct, now+int64(d.tim.Normal.TRRD))
	rk.recordAct(now)
	rk.openBanks++
	d.stats.Activates++
	var gangK int64
	if inMCR {
		d.stats.MCRActivates++
		gangK = int64(d.mech.GangK(a.Row))
	}
	d.note(Command{Kind: core.CmdActivate, Bank: bank, Row: a.Row, At: now, Done: now + int64(p.TRCD), Arg: gangK})
	if emitEv {
		d.tr.Emit(obs.Event{TS: now, Dur: int32(extra), Kind: ev,
			Channel: int16(a.Channel), Rank: int16(a.Rank), Bank: int16(a.Bank), Row: int32(a.Row)})
	}
}

// EarliestColumnAt returns the first cycle >= now at which a READ (or,
// with write set, a WRITE) to the bank's open row could issue. Whether
// that row serves the request is the caller's question (IsRowHitAt): no
// gate depends on the row.
func (d *Device) EarliestColumnAt(bank int, write bool, now int64) int64 {
	ri := bank >> d.bankShift
	ch := ri >> d.rankShift
	b, rk := &d.banks[bank], &d.ranks[ri]
	t := max(now, d.nextCol[ch], rk.RefreshBusyUntil)
	latency := int64(d.tim.Normal.TCAS)
	if write {
		t, latency = max(t, b.NextWrite), int64(d.tim.Normal.TCWD)
	} else {
		t = max(t, b.NextRead, rk.NextReadOK)
	}
	// Data bus: the burst occupies [t+latency, t+latency+BL); it starts no
	// sooner than the bus is free, plus the rank-to-rank switch penalty
	// when ownership changes.
	busFree := d.busBusyUntil[ch]
	if owner := d.busOwner[ch]; owner >= 0 && owner != ri&(d.cfg.Geom.Ranks-1) {
		busFree += int64(d.tim.Normal.TRTRS)
	}
	return max(t, busFree-latency)
}

// earliestColumn is EarliestColumnAt for the bank of addr, and false when
// the bank does not have the right row open.
func (d *Device) earliestColumn(a core.Address, write bool, now int64) (int64, bool) {
	bank := a.BankID(d.cfg.Geom)
	if !d.IsRowHitAt(bank, a.Row) {
		return 0, false
	}
	return d.EarliestColumnAt(bank, write, now), true
}

// EarliestRead returns the first cycle >= now a READ to addr could issue,
// and false when the bank does not have the right row open.
func (d *Device) EarliestRead(a core.Address, now int64) (int64, bool) {
	return d.earliestColumn(a, false, now)
}

// CanRead reports whether READ to addr is legal at cycle now.
func (d *Device) CanRead(a core.Address, now int64) bool {
	t, ok := d.EarliestRead(a, now)
	return ok && t <= now
}

// Read issues a column read at cycle now and returns the cycle the data
// burst completes on the bus (the request's service time).
func (d *Device) Read(a core.Address, now int64) int64 {
	if !d.CanRead(a, now) {
		panic(fmt.Sprintf("dram: illegal RD %v at cycle %d", a, now))
	}
	bank := a.BankID(d.cfg.Geom)
	b := &d.banks[bank]
	start := now + int64(d.tim.Normal.TCAS)
	end := start + int64(d.tim.Normal.TBURST)
	d.busBusyUntil[a.Channel] = end
	d.busOwner[a.Channel] = a.Rank
	d.nextCol[a.Channel] = now + int64(d.tim.Normal.TCCD)
	b.NextPre = max(b.NextPre, now+int64(d.tim.Normal.TRTP))
	d.stats.Reads++
	d.note(Command{Kind: core.CmdRead, Bank: bank, Row: a.Row, At: now, Done: end})
	return end
}

// EarliestWrite returns the first cycle >= now a WRITE to addr could issue.
func (d *Device) EarliestWrite(a core.Address, now int64) (int64, bool) {
	return d.earliestColumn(a, true, now)
}

// CanWrite reports whether WRITE to addr is legal at cycle now.
func (d *Device) CanWrite(a core.Address, now int64) bool {
	t, ok := d.EarliestWrite(a, now)
	return ok && t <= now
}

// Write issues a column write at cycle now and returns the cycle the data
// burst completes.
func (d *Device) Write(a core.Address, now int64) int64 {
	if !d.CanWrite(a, now) {
		panic(fmt.Sprintf("dram: illegal WR %v at cycle %d", a, now))
	}
	bank := a.BankID(d.cfg.Geom)
	b, rk := &d.banks[bank], &d.ranks[bank>>d.bankShift]
	start := now + int64(d.tim.Normal.TCWD)
	end := start + int64(d.tim.Normal.TBURST)
	d.busBusyUntil[a.Channel] = end
	d.busOwner[a.Channel] = a.Rank
	d.nextCol[a.Channel] = now + int64(d.tim.Normal.TCCD)
	// Write recovery gates the precharge; write-to-read turnaround gates
	// subsequent reads in the whole rank.
	b.NextPre = max(b.NextPre, end+int64(d.tim.Normal.TWR))
	rk.NextReadOK = max(rk.NextReadOK, end+int64(d.tim.Normal.TWTR))
	d.stats.Writes++
	d.note(Command{Kind: core.CmdWrite, Bank: bank, Row: a.Row, At: now, Done: end})
	return end
}

// EarliestPrechargeAt returns the first cycle >= now a PRE could issue to
// the bank; false when the bank is already closed.
func (d *Device) EarliestPrechargeAt(bank int, now int64) (int64, bool) {
	b := &d.banks[bank]
	if b.OpenRow < 0 {
		return 0, false
	}
	return max(now, b.NextPre, d.ranks[bank>>d.bankShift].RefreshBusyUntil), true
}

// EarliestPrecharge is EarliestPrechargeAt for the bank of addr.
func (d *Device) EarliestPrecharge(a core.Address, now int64) (int64, bool) {
	return d.EarliestPrechargeAt(a.BankID(d.cfg.Geom), now)
}

// CanPrecharge reports whether PRE is legal at cycle now.
func (d *Device) CanPrecharge(a core.Address, now int64) bool {
	t, ok := d.EarliestPrecharge(a, now)
	return ok && t <= now
}

// Precharge closes the open row of the bank of addr at cycle now.
func (d *Device) Precharge(a core.Address, now int64) {
	if !d.CanPrecharge(a, now) {
		panic(fmt.Sprintf("dram: illegal PRE %v at cycle %d", a, now))
	}
	bank := a.BankID(d.cfg.Geom)
	b := &d.banks[bank]
	c := Command{Kind: core.CmdPrecharge, Bank: bank, Row: b.OpenRow, At: now, Done: now + int64(d.tim.Normal.TRP)}
	if d.observer != nil {
		c.MEff = d.MEff(c.Row)
	}
	b.OpenRow = -1
	b.OpenMCR = false
	b.NextAct = max(b.NextAct, c.Done)
	d.ranks[bank>>d.bankShift].openBanks--
	d.stats.Precharges++
	d.note(c)
}

// EarliestRefresh returns the first cycle >= now a REF could issue to the
// rank (all banks must be precharged); false when some bank is open.
func (d *Device) EarliestRefresh(ch, rankID int, now int64) (int64, bool) {
	t := now
	banks := d.rankBanks(ch, rankID)
	for i := range banks {
		if banks[i].OpenRow >= 0 {
			return 0, false
		}
		t = max(t, banks[i].NextAct)
	}
	return t, true
}

// rankBanks returns the banks of one rank.
func (d *Device) rankBanks(ch, rankID int) []bank {
	first := (ch*d.cfg.Geom.Ranks + rankID) << d.bankShift
	return d.banks[first : first+d.cfg.Geom.Banks]
}

// CanRefresh reports whether REF to the rank is legal at cycle now.
func (d *Device) CanRefresh(ch, rankID int, now int64) bool {
	t, ok := d.EarliestRefresh(ch, rankID, now)
	return ok && t <= now
}

// Refresh issues REF command number counter to the rank at cycle now. It
// returns the refresh plan (base row, band, skipped flag) and the cycle the
// rank becomes usable again. A skipped REF costs nothing and touches no
// state beyond the statistics.
func (d *Device) Refresh(ch, rankID int, counter int, now int64) (mcr.LayoutRefreshOp, int64) {
	op := d.mech.RefreshPlan(counter)
	d.mech.NoteRefresh(counter)
	ri := ch*d.cfg.Geom.Ranks + rankID
	c := Command{Kind: core.CmdRefresh, Bank: ri << d.bankShift, Row: op.Row, At: now, Done: now}
	if op.Skipped && d.cfg.Mech.RefreshSkipping {
		d.stats.SkippedRefreshes++
		c.Arg, c.Skipped = int64(counter), true
		d.note(c)
		return op, now
	}
	op.Skipped = false // skipping disabled: the REF really happens
	if !d.CanRefresh(ch, rankID, now) {
		panic(fmt.Sprintf("dram: illegal REF ch%d rank%d at cycle %d", ch, rankID, now))
	}
	tRFC := int64(d.tim.Normal.TRFC)
	if op.InMCR {
		if cyc, ok := d.tim.RefreshPerK[op.K]; ok {
			tRFC = int64(cyc)
		} else {
			tRFC = int64(d.tim.RefreshMCRCycles)
		}
		d.stats.MCRRefreshes++
	}
	c.Done, c.Arg = now+tRFC, int64(op.K)
	if d.observer != nil {
		c.MEff = d.mech.RefreshMEff(op.K, op.M)
	}
	d.ranks[ri].RefreshBusyUntil = c.Done
	banks := d.rankBanks(ch, rankID)
	for i := range banks {
		banks[i].NextAct = max(banks[i].NextAct, c.Done)
	}
	d.stats.Refreshes++
	d.note(c)
	return op, c.Done
}

// SetMode reprograms the MCR-mode through the mode register (an MRS
// command) and rebuilds the timing classes. All banks must be precharged.
// Combined layouts are fixed at construction; SetMode clears any layout in
// favor of the simple mode. Backends without a mode register return an
// error wrapping mech.ErrNoModes.
func (d *Device) SetMode(mode mcr.Mode, now int64) error {
	for i := range d.banks {
		if d.banks[i].OpenRow >= 0 {
			return fmt.Errorf("dram: MRS requires all banks precharged")
		}
	}
	if err := d.mech.SetMode(mode, now); err != nil {
		return err
	}
	d.readMech()
	return nil
}
