// Checkpoint support for the controller: queues, write-drain flags,
// refresh obligations, the completion list, the MRS-drain target and the
// cached tREFI, exported flat and reinstated on a freshly built
// controller over the (already restored) device.

package controller

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mcr"
)

// RequestState mirrors request for serialization.
type RequestState struct {
	ID       int64
	Kind     core.OpKind
	Addr     core.Address
	CoreID   int
	ArriveAt int64

	PreAt, ActAt           int64
	RasBlocked, RefBlocked int64
}

// RefreshState mirrors rankRefresh for serialization.
type RefreshState struct {
	NextDue int64
	Debt    int
	Counter int
}

// State is the checkpointable state of a controller. The schedulePass
// bank-dedup scratch (touched/touchedGen) is per-pass and intentionally
// absent: a restored controller starts it from zero, which is
// indistinguishable to the scheduler. So is the last walk's memo
// (walkedAt/wake/blocked): a restored controller has none until its
// first Tick.
type State struct {
	ReadQ  [][]RequestState
	WriteQ [][]RequestState
	Drain  []bool

	Refresh []RefreshState

	NextID      int64
	Completions []Completion
	Stats       Stats
	TREFI       int64

	PendingMode *mcr.Mode
}

// exportQueue flattens one per-channel request queue.
func exportQueue(q [][]request) [][]RequestState {
	out := make([][]RequestState, len(q))
	for ch, reqs := range q {
		if len(reqs) == 0 {
			continue
		}
		out[ch] = make([]RequestState, len(reqs))
		for i, r := range reqs {
			out[ch][i] = RequestState{
				ID: r.id, Kind: r.kind, Addr: r.addr, CoreID: int(r.coreID), ArriveAt: r.arriveAt,
				PreAt: r.preAt, ActAt: r.actAt, RasBlocked: r.rasBlocked, RefBlocked: r.refBlocked,
			}
		}
	}
	return out
}

// importQueue reinstates one per-channel request queue, rebuilding each
// request's cached bank index.
func importQueue(dst [][]request, src [][]RequestState, geom core.Geometry) {
	for ch := range dst {
		dst[ch] = dst[ch][:0]
		if ch >= len(src) {
			continue
		}
		for _, r := range src[ch] {
			dst[ch] = append(dst[ch], request{
				id: r.ID, kind: r.Kind, addr: r.Addr, bank: r.Addr.BankID(geom), arriveAt: r.ArriveAt,
				//mcrlint:allow timingrange exported from an int32 by exportQueue
				coreID: int32(r.CoreID),
				preAt:  r.PreAt, actAt: r.ActAt, rasBlocked: r.RasBlocked, refBlocked: r.RefBlocked,
			})
		}
	}
}

// ExportState copies the controller's mutable state out for a checkpoint.
func (c *Controller) ExportState() State {
	st := State{
		ReadQ:       exportQueue(c.readQ),
		WriteQ:      exportQueue(c.writeQ),
		Drain:       append([]bool(nil), c.drain...),
		Refresh:     make([]RefreshState, len(c.refresh)),
		NextID:      c.nextID,
		Completions: append([]Completion(nil), c.completions...),
		Stats:       c.stats,
		TREFI:       c.tREFI,
	}
	for i, r := range c.refresh {
		st.Refresh[i] = RefreshState{NextDue: r.nextDue, Debt: r.debt, Counter: r.counter}
	}
	if c.pendingMode != nil {
		m := *c.pendingMode
		st.PendingMode = &m
	}
	return st
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
	importQueue(c.readQ, st.ReadQ, c.geom)
	importQueue(c.writeQ, st.WriteQ, c.geom)
	c.walkedAt = noWalk
	copy(c.drain, st.Drain)
	for i, r := range st.Refresh {
		c.refresh[i] = rankRefresh{nextDue: r.NextDue, debt: r.Debt, counter: r.Counter}
	}
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
