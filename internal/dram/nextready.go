// Span seams for the event-driven engine. RankSpanState exposes what the
// power model needs to account a skipped span in closed form.
// NextReadyAt folds every JEDEC gate the device keeps (bank/rank
// next-command times, refresh-busy windows, bus and column turnaround)
// into the earliest future cycle at which any command's eligibility can
// change. The engine's skip horizon does not need it — the controller's
// walk folds exactly the gates it consulted — so it is a device-wide
// diagnostic bound, timed by the benchmark's traced pass.

package dram

import "math"

// NextReadyAt returns the earliest cycle strictly after now at which any
// timing gate in the device expires — the soonest moment a command that
// is blocked now could become issuable. math.MaxInt64 means every gate
// has already expired, so the device's eligibility is static until the
// controller issues something.
func (d *Device) NextReadyAt(now int64) int64 {
	next := int64(math.MaxInt64)
	for i := range d.banks {
		b := &d.banks[i]
		next = foldGate(next, b.NextAct, now)
		next = foldGate(next, b.NextRead, now)
		next = foldGate(next, b.NextWrite, now)
		next = foldGate(next, b.NextPre, now)
	}
	for i := range d.ranks {
		r := &d.ranks[i]
		next = foldGate(next, r.NextAct, now)
		next = foldGate(next, r.NextReadOK, now)
		next = foldGate(next, r.RefreshBusyUntil, now)
	}
	for ch := range d.busBusyUntil {
		next = foldGate(next, d.busBusyUntil[ch], now)
		next = foldGate(next, d.nextCol[ch], now)
	}
	return next
}

// foldGate folds one absolute timing gate into the running minimum,
// ignoring gates that have already expired (t <= now).
func foldGate(next, t, now int64) int64 {
	if t > now && t < next {
		return t
	}
	return next
}

// RankSpanState reports the rank-level facts the power accounting needs
// to replay an idle span without stepping it: the cycle the in-flight
// refresh (if any) ends, and whether any bank holds a row open. While
// the controller issues nothing, RankBusy(t) for t in the span is
// exactly anyOpen || t < busyUntil — open rows stay open and the
// refresh window only expires.
func (d *Device) RankSpanState(ch, rankID int) (busyUntil int64, anyOpen bool) {
	rk := &d.ranks[ch*d.cfg.Geom.Ranks+rankID]
	return rk.RefreshBusyUntil, rk.openBanks > 0
}
