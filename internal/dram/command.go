// The command record: every issued command leaves the device as one
// Command, through one site (note), to the metrics registry, the event
// tracer and at most one Observer — retention checkers and tracing tools
// attach there without touching the scheduling fast path.

package dram

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// Command is one issued DRAM command. It is fixed-size and pointer-free:
// an observer may keep it as it is.
type Command struct {
	Kind core.CommandKind
	// Bank is the flattened bank (core.Address.BankID); a REF names the
	// first bank of its rank and covers every bank of the rank.
	Bank int
	// Row is the addressed row of an ACT, RD or WR, the closed row of a
	// PRE, and a REF's base row: the REF restores Row, Row+mcr.RefsPerWindow,
	// ... below the bank's row count, each with its clones.
	Row int
	// At is the issue cycle. Done ends the window the command opens: tRCD
	// after an ACT, the data burst after a RD or WR, tRP after a PRE, tRFC
	// after a REF, At itself for a skipped REF.
	At, Done int64
	// MEff is the restore class (1 = full restore) of a PRE's closed row or
	// of a REF, 0 for the other kinds. Computing it asks the mechanism, so
	// it is filled only while an Observer is attached.
	MEff int
	// Arg is the value the trace event carries: the gang size K of an MCR
	// ACT, the band K of a REF, the counter of a skipped REF; 0 otherwise.
	Arg int64
	// Skipped marks a REF that Refresh-Skipping elided: it restored nothing.
	Skipped bool
}

// Observer receives every issued command, synchronously from the method
// that issued it. It may read device state (integrity.DeviceAdapter reads
// the quarantine set, gang sizes and the configuration); it must not
// issue commands or change that state.
type Observer interface {
	Observe(c Command)
}

// SetObserver attaches the observer (nil detaches).
func (d *Device) SetObserver(o Observer) {
	d.observer = o
	d.noting = d.obs != nil || d.tr != nil || d.observer != nil
}

// cmdClasses gives each command kind its registry counter and trace event.
var cmdClasses = [...]struct {
	cmd obs.Cmd
	ev  obs.EventKind
}{
	core.CmdActivate:  {obs.CmdACT, obs.EvACT},
	core.CmdRead:      {obs.CmdRD, obs.EvRD},
	core.CmdWrite:     {obs.CmdWR, obs.EvWR},
	core.CmdPrecharge: {obs.CmdPRE, obs.EvPRE},
	core.CmdRefresh:   {obs.CmdREF, obs.EvREF},
}

// note reports one issued command: to the registry (a REF counts against
// every bank of its rank, a skipped one against none), to the tracer and
// to the observer. With none of the three attached it is one branch.
func (d *Device) note(c Command) {
	if !d.noting {
		return
	}
	class := cmdClasses[c.Kind]
	refresh := c.Kind == core.CmdRefresh
	if d.obs != nil && !c.Skipped {
		span := 1
		if refresh {
			span = 1 << d.bankShift
		}
		for b := c.Bank; b < c.Bank+span; b++ {
			d.obs.IncCommand(class.cmd, b)
		}
	}
	if d.tr != nil {
		// Decoded address components are bounded by the validated geometry
		// (rows per bank < 2^31, channels, ranks and banks far below 2^15);
		// a command's window and Arg (a gang size) are a few cycles or rows.
		ri := c.Bank >> d.bankShift
		ev := obs.Event{
			TS: c.At, Dur: int32(c.Done - c.At), Kind: class.ev,
			Channel: int16(ri >> d.rankShift), Rank: int16(ri & (1<<d.rankShift - 1)),
			Bank: int16(c.Bank & (1<<d.bankShift - 1)), Row: int32(c.Row), Arg: int32(c.Arg),
		}
		if refresh {
			ev.Bank, ev.Row = -1, -1 // rank-wide
			if c.Skipped {
				ev.Kind = obs.EvREFSkip
			}
		}
		d.tr.Emit(ev)
	}
	if d.observer != nil {
		d.observer.Observe(c)
	}
}

// MEff returns the effective refreshes-per-window class governing a row's
// restore level under the active mechanism: 1 (full restore) unless
// Early-Precharge is on, in which case the band's K — reduced to the
// band's M when Refresh-Skipping is honored. Quarantined rows always
// restore fully.
func (d *Device) MEff(row int) int { return d.mech.MEff(row) }
