// Checkpoint support for the controller: queues, write-drain flags,
// refresh obligations, the completion list, the MRS-drain target and the
// cached tREFI. The queues and refresh entries travel as the live element
// types (request, rankRefresh), so export is a clone and import is
// validation plus assignment on a freshly built controller over the
// (already restored) device.

package controller

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mcr"
)

// State is the checkpointable state of a controller. The schedulePass
// scratch (touched) is per-pass and intentionally absent: every pass
// clears what it reads of it. So is the last walk's memo
// (walkedAt/wake/blocked): a restored controller has none until its
// first Tick.
type State struct {
	ReadQ  [][]request
	WriteQ [][]request
	Drain  []bool

	Refresh []rankRefresh

	NextID      int64
	Completions []Completion
	Stats       Stats
	TREFI       int64

	PendingMode *mcr.Mode
}

// cloneQueues copies one per-channel request queue set.
func cloneQueues(q [][]request) [][]request {
	out := make([][]request, len(q))
	for ch := range q {
		out[ch] = append([]request(nil), q[ch]...)
	}
	return out
}

// ExportState copies the controller's mutable state out for a checkpoint.
func (c *Controller) ExportState() State {
	st := State{
		ReadQ:       cloneQueues(c.readQ),
		WriteQ:      cloneQueues(c.writeQ),
		Drain:       append([]bool(nil), c.drain...),
		Refresh:     append([]rankRefresh(nil), c.refresh...),
		NextID:      c.nextID,
		Completions: append([]Completion(nil), c.completions...),
		Stats:       c.stats,
		TREFI:       c.tREFI,
	}
	if c.pendingMode != nil {
		m := *c.pendingMode
		st.PendingMode = &m
	}
	return st
}

// checkQueues validates one checkpointed queue set: every request must
// sit in the queue of its own channel and kind, address a cell the
// geometry has, and carry the bank index its address flattens to — the
// scheduler indexes device and scratch arrays with all of them.
func (c *Controller) checkQueues(name string, q [][]request, kind core.OpKind, limit int) error {
	g := c.geom
	for ch := range q {
		if len(q[ch]) > limit {
			return fmt.Errorf("controller: checkpoint %s queue %d holds %d requests, capacity is %d", name, ch, len(q[ch]), limit)
		}
		for i, r := range q[ch] {
			a := r.Addr
			switch {
			case r.Kind != kind:
				return fmt.Errorf("controller: checkpoint %s queue %d entry %d has kind %v", name, ch, i, r.Kind)
			case a.Channel != ch || a.Rank < 0 || a.Rank >= g.Ranks || a.Bank < 0 || a.Bank >= g.Banks ||
				a.Row < 0 || a.Row >= g.Rows || a.Column < 0 || a.Column >= g.Columns:
				return fmt.Errorf("controller: checkpoint %s queue %d entry %d addresses %v, outside the geometry", name, ch, i, a)
			case r.Bank != a.BankID(g):
				return fmt.Errorf("controller: checkpoint %s queue %d entry %d caches bank %d for %v, want %d", name, ch, i, r.Bank, a, a.BankID(g))
			case r.CoreID < 0:
				return fmt.Errorf("controller: checkpoint %s queue %d entry %d has core id %d", name, ch, i, r.CoreID)
			}
		}
	}
	return nil
}

// ImportState reinstates a checkpointed state on a freshly built
// controller of the same configuration.
func (c *Controller) ImportState(st State) error {
	switch {
	case len(st.ReadQ) != len(c.readQ) || len(st.WriteQ) != len(c.writeQ) || len(st.Drain) != len(c.drain):
		return fmt.Errorf("controller: checkpoint channel count does not match the configuration")
	case len(st.Refresh) != len(c.refresh):
		return fmt.Errorf("controller: checkpoint has %d rank-refresh entries, controller has %d", len(st.Refresh), len(c.refresh))
	case st.TREFI <= 0:
		return fmt.Errorf("controller: checkpointed tREFI must be positive, got %d", st.TREFI)
	}
	if err := c.checkQueues("read", st.ReadQ, core.OpRead, c.cfg.ReadQueueCap); err != nil {
		return err
	}
	if err := c.checkQueues("write", st.WriteQ, core.OpWrite, c.cfg.WriteQueueCap); err != nil {
		return err
	}
	for i, r := range st.Refresh {
		if r.Debt < 0 || r.Counter < 0 || r.Counter >= mcr.RefsPerWindow {
			return fmt.Errorf("controller: checkpoint rank-refresh entry %d has debt %d, counter %d", i, r.Debt, r.Counter)
		}
	}
	for ch := range c.readQ {
		c.readQ[ch] = append(c.readQ[ch][:0], st.ReadQ[ch]...)
		c.writeQ[ch] = append(c.writeQ[ch][:0], st.WriteQ[ch]...)
	}
	c.walkedAt = noWalk
	copy(c.drain, st.Drain)
	copy(c.refresh, st.Refresh)
	c.nextID = st.NextID
	c.completions = append(c.completions[:0], st.Completions...)
	c.stats = st.Stats
	c.tREFI = st.TREFI
	c.pendingMode = nil
	if st.PendingMode != nil {
		m := *st.PendingMode
		c.pendingMode = &m
	}
	return nil
}
