// Optional command-stream observer: retention checkers and tracing tools
// attach here without touching the scheduling fast path.

package dram

import "repro/internal/core"

// Hook observes device events. All methods are called synchronously from
// the issuing command; implementations must not call back into the device.
type Hook interface {
	// Activated fires when an ACT opens a row (before any restore).
	Activated(a core.Address, now int64)
	// Precharged fires when a PRE closes a row; mEff is the effective
	// refreshes-per-window class the restore level was chosen for
	// (1 = full restore).
	Precharged(a core.Address, row int, mEff int, now int64)
	// Refreshed fires when a REF completes; rows are the batch's base
	// rows and mEff the restore class of this refresh. rows belongs to
	// the refresh planner and is overwritten by the next REF: copy what
	// must outlive the call.
	Refreshed(ch, rank int, rows []int, mEff int, now int64)
}

// SetHook attaches an observer (nil detaches).
func (d *Device) SetHook(h Hook) { d.hook = h }

// MEff returns the effective refreshes-per-window class governing a row's
// restore level under the active mechanism: 1 (full restore) unless
// Early-Precharge is on, in which case the band's K — reduced to the
// band's M when Refresh-Skipping is honored. Quarantined rows always
// restore fully.
func (d *Device) MEff(row int) int { return d.mech.MEff(row) }
