// Package dramtest is the protocol oracle of the DRAM device model, for
// tests only: nothing in the product imports it. The device does not check
// the commands it is asked to issue — the controller's scheduler issues one
// only once the device's Earliest* gate for it has passed — so an Oracle,
// attached as the device's observer, is what holds every issued command to
// the DDR3 rules and to the backend's timing classes (Table 3 for MCR
// rows). It keeps its own per-bank, per-rank and per-channel command
// history and reads none of the device's gate state: a gate that opens a
// cycle early shows here as a finding, where a check that re-asked the
// gate could not see it.
package dramtest

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
)

// never is the time of a command that has not happened: far enough in the
// past that no rule binds, near enough that adding a gap cannot overflow.
const never = -1 << 40

// maxKept is how many findings an Oracle keeps to report; it counts all.
const maxKept = 8

// Oracle is a dram.Observer that checks each issued command before passing
// it on to the observer it replaced.
type Oracle struct {
	dev  *dram.Device
	next dram.Observer
	geom core.Geometry
	// The minimum distances, in cycles, between two commands at the level
	// that gates them, in the shape of Ramulator's timing tables: a
	// command of the column kind may issue no sooner than the gap after
	// the last command of the row kind in the same bank, rank or channel.
	// The fixed ones come from the backend's baseline class; the ACT's
	// tRCD and tRAS and the REF's tRFC depend on the row class, and are
	// kept with the history (bankHist.actTo*, rankHist.refToAny).
	tables struct {
		bank struct {
			preToAct, readToPre, writeToPre int64
		}
		rank struct {
			actToAct, actToFAW, writeToRead int64
		}
		channel struct {
			colToCol, readToData, writeToData, burst, rankSwitch int64
		}
	}
	bank []bankHist
	rank []rankHist
	ch   []chanHist

	findings []string
	count    int
}

// bankHist is one bank's command history.
type bankHist struct {
	open bool
	row  int // the open row
	// act, pre, read and write are the last ACT, PRE, RD and WR.
	act, pre, read, write int64
	// actToCol and actToPre are tRCD and tRAS of the open row's class,
	// plus the cycles the backend charged to its ACT.
	actToCol, actToPre int64
}

// rankHist is one rank's command history.
type rankHist struct {
	acts  [4]int64 // the last four ACTs, oldest at next
	next  int
	write int64 // the last WR
	// ref is the last REF that was not skipped, refToAny its tRFC.
	ref, refToAny int64
}

// chanHist is one channel's command history.
type chanHist struct {
	col int64 // the last RD or WR
	// busEnd is when the last data burst ends, busRank the rank (within
	// the channel) that drove it, -1 before the first.
	busEnd  int64
	busRank int
}

// Attach builds an oracle for the device and installs it as the device's
// observer, in place of next (nil for none), to which it passes every
// command after checking it. Attach it to a device that has issued
// nothing: the oracle knows only the commands it sees.
func Attach(dev *dram.Device, next dram.Observer) *Oracle {
	g := dev.Config().Geom
	o := &Oracle{
		dev:  dev,
		next: next,
		geom: g,
		bank: make([]bankHist, g.Channels*g.Ranks*g.Banks),
		rank: make([]rankHist, g.Channels*g.Ranks),
		ch:   make([]chanHist, g.Channels),
	}
	p := dev.Timings().Normal
	o.tables.bank.preToAct = int64(p.TRP)
	o.tables.bank.readToPre = int64(p.TRTP)
	o.tables.bank.writeToPre = int64(p.TCWD + p.TBURST + p.TWR)
	o.tables.rank.actToAct = int64(p.TRRD)
	o.tables.rank.actToFAW = int64(p.TFAW)
	o.tables.rank.writeToRead = int64(p.TCWD + p.TBURST + p.TWTR)
	o.tables.channel.colToCol = int64(p.TCCD)
	o.tables.channel.readToData = int64(p.TCAS)
	o.tables.channel.writeToData = int64(p.TCWD)
	o.tables.channel.burst = int64(p.TBURST)
	o.tables.channel.rankSwitch = int64(p.TRTRS)
	for i := range o.bank {
		o.bank[i] = bankHist{act: never, pre: never, read: never, write: never}
	}
	for i := range o.rank {
		o.rank[i] = rankHist{acts: [4]int64{never, never, never, never}, write: never, ref: never}
	}
	for i := range o.ch {
		o.ch[i] = chanHist{col: never, busEnd: never, busRank: -1}
	}
	dev.SetObserver(o)
	return o
}

// Err returns nil when every command the oracle saw was legal, and
// otherwise an error that counts the findings and lists the first ones.
func (o *Oracle) Err() error {
	if o.count == 0 {
		return nil
	}
	return fmt.Errorf("dramtest: %d illegal commands; the first:\n\t%s", o.count, strings.Join(o.findings, "\n\t"))
}

// Observe implements dram.Observer.
func (o *Oracle) Observe(c dram.Command) {
	ri := c.Bank / o.geom.Banks
	b, r, ch := &o.bank[c.Bank], &o.rank[ri], &o.ch[ri/o.geom.Ranks]
	rankInCh := ri % o.geom.Ranks
	switch c.Kind {
	case core.CmdActivate:
		if b.open {
			o.report(c, "the bank has row %d open", b.row)
		}
		o.after(c, "tRP", b.pre, o.tables.bank.preToAct)
		o.after(c, "tRRD", r.acts[(r.next+3)%4], o.tables.rank.actToAct)
		o.after(c, "tFAW", r.acts[r.next], o.tables.rank.actToFAW)
		o.after(c, "tRFC", r.ref, r.refToAny)
		p, _ := o.dev.RowParams(c.Row)
		if c.Extra > 0 {
			// The backend converted the row inside this ACT (CLR), so the
			// class read now is the converted one; the row was opened at
			// the baseline class it converted out of.
			base := o.dev.Timings().Normal
			p = &base
		}
		b.open, b.row, b.act = true, c.Row, c.At
		b.actToCol, b.actToPre = int64(p.TRCD)+c.Extra, int64(p.TRAS)+c.Extra
		r.acts[r.next], r.next = c.At, (r.next+1)%4
	case core.CmdRead, core.CmdWrite:
		if !b.open {
			o.report(c, "the bank is closed")
		} else if !o.sameGang(b.row, c.Row) {
			o.report(c, "the bank has row %d open", b.row)
		}
		o.after(c, "tRCD", b.act, b.actToCol)
		o.after(c, "tRFC", r.ref, r.refToAny)
		o.after(c, "tCCD", ch.col, o.tables.channel.colToCol)
		toData := o.tables.channel.readToData
		if c.Kind == core.CmdWrite {
			toData = o.tables.channel.writeToData
			b.write, r.write = c.At, c.At
		} else {
			o.after(c, "tWTR", r.write, o.tables.rank.writeToRead)
			b.read = c.At
		}
		// The burst starts toData after the command and may not overlap
		// the last one, nor follow another rank's without the switch gap.
		busFree := ch.busEnd
		if ch.busRank >= 0 && ch.busRank != rankInCh {
			busFree += o.tables.channel.rankSwitch
		}
		o.after(c, "the data bus", busFree-toData, 0)
		ch.col, ch.busEnd, ch.busRank = c.At, c.At+toData+o.tables.channel.burst, rankInCh
	case core.CmdPrecharge:
		if !b.open {
			o.report(c, "the bank is closed")
		} else if c.Row != b.row {
			o.report(c, "the record closes row %d, the bank has row %d open", c.Row, b.row)
		}
		o.after(c, "tRAS", b.act, b.actToPre)
		o.after(c, "tRTP", b.read, o.tables.bank.readToPre)
		o.after(c, "tWR", b.write, o.tables.bank.writeToPre)
		o.after(c, "tRFC", r.ref, r.refToAny)
		b.open, b.pre = false, c.At
	case core.CmdRefresh:
		if c.Skipped {
			break // a skipped REF issues nothing on the bus
		}
		for i := c.Bank; i < c.Bank+o.geom.Banks; i++ {
			if o.bank[i].open {
				o.report(c, "bank %d has row %d open", i, o.bank[i].row)
			}
			o.after(c, "tRP", o.bank[i].pre, o.tables.bank.preToAct)
		}
		o.after(c, "tRFC", r.ref, r.refToAny)
		tRFC, ok := o.dev.Timings().RefreshPerK[int(c.Arg)]
		if !ok {
			o.report(c, "no tRFC class for gang size %d", c.Arg)
		}
		r.ref, r.refToAny = c.At, int64(tRFC)
	default:
		o.report(c, "the device issues no such command")
	}
	if o.next != nil {
		o.next.Observe(c)
	}
}

// sameGang reports whether a column access to row is served by the open
// row: the row itself, or a row of the open row's gang, the GangK(open)
// aligned rows from open &^ (GangK-1) whose wordlines fire together.
func (o *Oracle) sameGang(open, row int) bool {
	k := o.dev.GangK(open)
	return open&^(k-1) == row&^(k-1)
}

// after reports c when it issued sooner than gap cycles after last.
func (o *Oracle) after(c dram.Command, rule string, last, gap int64) {
	if c.At < last+gap {
		o.report(c, "%s needs cycle %d", rule, last+gap)
	}
}

// report counts one finding and keeps the first few.
func (o *Oracle) report(c dram.Command, format string, args ...any) {
	o.count++
	if len(o.findings) < maxKept {
		o.findings = append(o.findings, fmt.Sprintf("%v to bank %d row %d at cycle %d: ", c.Kind, c.Bank, c.Row, c.At)+fmt.Sprintf(format, args...))
	}
}

var _ dram.Observer = (*Oracle)(nil)
