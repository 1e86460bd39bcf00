// MRS handling: an MCR mode switch (paper Sec. 3.5) is a mode-register
// write, and JEDEC requires every bank precharged before MRS. The
// controller therefore drains to all-banks-precharged first — no new
// activates or column accesses while a change is pending — then applies
// the mode atomically. The resilience policy uses this to step the device
// toward safer modes mid-run without violating command legality.

package controller

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/obs"
)

// RequestModeChange asks the controller to switch the device to the given
// mode as soon as it can legally drain to all-banks-precharged. A request
// made while another is pending replaces it (the newest target wins —
// the degradation ladder only ever moves toward safer modes). Backends
// without an MRS-programmable mode register (TL-DRAM, NUAT, CROW,
// CLR-DRAM) reject the request with an error wrapping mech.ErrNoModes
// before any drain starts: the schedule never stalls for a switch the
// device cannot take.
func (c *Controller) RequestModeChange(m mcr.Mode) error {
	if !c.dev.SupportsModeChange() {
		return fmt.Errorf("controller: %s device: %w", c.dev.MechanismName(), mech.ErrNoModes)
	}
	c.pendingMode = &m
	c.walkedAt = noWalk // the next Tick drains instead of scheduling
	return nil
}

// ModeChangePending reports whether a requested mode switch has not yet
// been applied.
func (c *Controller) ModeChangePending() bool { return c.pendingMode != nil }

// tickModeChange runs instead of the normal scheduling pass while a mode
// switch is pending: each channel may spend its command slot precharging
// one open bank, and once the whole device is precharged the MRS issues.
// The drain is bounded — every open row's tRAS/tWR gate expires in a few
// hundred cycles and nothing new opens meanwhile.
func (c *Controller) tickModeChange(now int64) {
	allClosed := true
	for ch := 0; ch < c.geom.Channels; ch++ {
		// Refresh obligations keep accruing during the drain; they are
		// serviced as soon as the MRS clears (the drain is far shorter
		// than the 8-interval postponement budget).
		c.updateRefreshDebt(ch, now)
		if !c.drainChannel(ch, now) {
			allClosed = false
		}
	}
	if !allClosed {
		return
	}
	mode := *c.pendingMode
	c.pendingMode = nil // applied or abandoned: never stall the schedule
	if err := c.dev.SetMode(mode, now); err != nil {
		// All banks are precharged, so the only failures are config-level
		// (e.g. a mode the geometry cannot express). Dropping the request
		// keeps the controller live; the resilience policy will re-request
		// on the next violation if it still wants the change.
		return
	}
	c.tREFI = int64(c.dev.Timings().Normal.TREFI)
	c.stats.ModeChanges++
	c.obs.ModeChange()
	c.tr.Emit(obs.Event{TS: now, Kind: obs.EvMRS, Channel: -1, Rank: -1, Bank: -1, Row: -1, Arg: int64(mode.K)})
}

// drainChannel precharges (at most) one open bank of the channel and
// reports whether the channel has no open rows left.
func (c *Controller) drainChannel(ch int, now int64) bool {
	closed := true
	issued := false
	for r := 0; r < c.geom.Ranks; r++ {
		for b := 0; b < c.geom.Banks; b++ {
			a := core.Address{Channel: ch, Rank: r, Bank: b}
			if c.dev.OpenRow(a) < 0 {
				continue
			}
			closed = false
			if !issued && c.dev.CanPrecharge(a, now) {
				c.dev.Precharge(a, now)
				issued = true
			}
		}
	}
	return closed
}
