// Checkpoint support for the device model: the JEDEC state machines
// (banks, ranks, buses), the event counters and the mechanism backend's
// policy state, exported as one flat value and reinstated on a freshly
// built device of the same configuration.

package dram

import (
	"fmt"

	"repro/internal/mech"
)

// State is the checkpointable state of a device: the live element types
// themselves (bank, rank), cloned, so a field added to either travels
// without further code.
type State struct {
	Banks        []bank
	Ranks        []rank
	BusBusyUntil []int64
	BusOwner     []int
	NextCol      []int64
	Stats        Stats
	Mech         mech.State
}

// ExportState copies the device's mutable state out for a checkpoint. The
// ranks travel without their open-bank counts, which are a function of
// Banks: a State reads the same before and after gob, and ImportState
// counts again.
func (d *Device) ExportState() State {
	st := State{
		Banks:        append([]bank(nil), d.banks...),
		Ranks:        append([]rank(nil), d.ranks...),
		BusBusyUntil: append([]int64(nil), d.busBusyUntil...),
		BusOwner:     append([]int(nil), d.busOwner...),
		NextCol:      append([]int64(nil), d.nextCol...),
		Stats:        d.stats,
		Mech:         d.mech.ExportState(),
	}
	for i := range st.Ranks {
		st.Ranks[i].openBanks = 0
	}
	return st
}

// ImportState reinstates a checkpointed state on a freshly built device
// of the same configuration, delegating the policy state to the mechanism
// backend and re-reading its (possibly mode-updated) config and timings.
// Every width and every stored index is checked against the geometry
// first, so a hand-built snapshot is an error here rather than an
// out-of-range panic cycles into the resumed run.
func (d *Device) ImportState(st State) error {
	geom := d.cfg.Geom
	switch {
	case len(st.Banks) != len(d.banks):
		return fmt.Errorf("dram: checkpoint has %d banks, device has %d", len(st.Banks), len(d.banks))
	case len(st.Ranks) != len(d.ranks):
		return fmt.Errorf("dram: checkpoint has %d ranks, device has %d", len(st.Ranks), len(d.ranks))
	case len(st.BusBusyUntil) != len(d.busBusyUntil) || len(st.BusOwner) != len(d.busOwner) || len(st.NextCol) != len(d.nextCol):
		return fmt.Errorf("dram: checkpoint channel-state widths do not match the device geometry")
	}
	for i, b := range st.Banks {
		if b.OpenRow < -1 || b.OpenRow >= geom.Rows {
			return fmt.Errorf("dram: checkpoint bank %d has open row %d, device has %d rows", i, b.OpenRow, geom.Rows)
		}
	}
	for i, r := range st.Ranks {
		if r.ActWindowAt < 0 || int(r.ActWindowAt) >= len(r.ActWindow) {
			return fmt.Errorf("dram: checkpoint rank %d has tFAW window cursor %d, want [0,%d)", i, r.ActWindowAt, len(r.ActWindow))
		}
	}
	for ch, owner := range st.BusOwner {
		if owner < -1 || owner >= geom.Ranks {
			return fmt.Errorf("dram: checkpoint channel %d has bus owner %d, device has %d ranks", ch, owner, geom.Ranks)
		}
	}
	if err := d.mech.ImportState(st.Mech); err != nil {
		return err
	}
	copy(d.banks, st.Banks)
	copy(d.ranks, st.Ranks)
	for i := range d.banks {
		if d.banks[i].OpenRow >= 0 {
			d.ranks[i>>d.bankShift].openBanks++
		}
	}
	copy(d.busBusyUntil, st.BusBusyUntil)
	copy(d.busOwner, st.BusOwner)
	copy(d.nextCol, st.NextCol)
	d.stats = st.Stats
	// A replayed MRS rebuilt the backend's config, timing classes and
	// gangs; the device caches all three, so refresh the caches.
	d.readMech()
	return nil
}
