// Checkpoint support for the core model: the ROB ring (raw, so ring
// arithmetic resumes bit-exactly), the pending trace record and the
// trace generator's replay position. The count of waiting reads is not
// carried: it is exactly the occupied window's unfinished reads, and
// ImportState recounts them.

package cpu

import "fmt"

// State is the checkpointable state of one core. ROB is the live ring
// itself, cloned. GenCalls is the trace generator's successful-Next
// count; the generator itself is rebuilt from its constructor arguments
// and replayed that far (see trace.Replay).
type State struct {
	ROB          []robEntry
	Head, Sz     int
	Occupancy    int
	Pending      Record
	HasPending   bool
	TailGap      int
	Retired      int64
	ReadsIssued  int64
	WritesIssued int64
	FetchStalls  int64
	DoneAt       int64
	GenCalls     int64
}

// ExportState copies the core's mutable state out for a checkpoint.
func (c *Core) ExportState() State {
	return State{
		ROB:          append([]robEntry(nil), c.rob...),
		Head:         c.head,
		Sz:           c.sz,
		Occupancy:    c.occupancy,
		Pending:      c.pending,
		HasPending:   c.hasPending,
		TailGap:      c.tailGap,
		Retired:      c.retired,
		ReadsIssued:  c.ReadsIssued,
		WritesIssued: c.WritesIssued,
		FetchStalls:  c.FetchStalls,
		DoneAt:       c.doneAt,
		GenCalls:     c.gen.Calls(),
	}
}

// ImportState reinstates a checkpointed state on a freshly built core of
// the same configuration, replaying the trace generator to its
// checkpointed position. The ring cursors index the ROB every cycle, so
// they are range-checked here, the occupancy must be what the occupied
// window adds up to, and no occupied entry may be empty: that bounds the
// window by the occupancy, which the ring arithmetic stands on.
func (c *Core) ImportState(st State) error {
	n := len(c.rob)
	switch {
	case len(st.ROB) != n:
		return fmt.Errorf("cpu: core %d checkpoint has %d ROB entries, config has %d", c.id, len(st.ROB), n)
	case st.Head < 0 || st.Head >= n || st.Sz < 0 || st.Sz > n:
		return fmt.Errorf("cpu: core %d checkpoint ROB window (head %d, size %d) is outside the %d-entry ring", c.id, st.Head, st.Sz, n)
	}
	waiting, occupancy := 0, 0
	for i := 0; i < st.Sz; i++ {
		idx := (st.Head + i) % n
		e := st.ROB[idx]
		if e.Count < 1 || e.Count > c.cfg.ROBSize {
			return fmt.Errorf("cpu: core %d checkpoint ROB entry %d holds %d instructions", c.id, idx, e.Count)
		}
		occupancy += e.Count
		if e.ReadID >= 0 && !e.Done {
			waiting++
		}
	}
	if st.Occupancy != occupancy || occupancy > c.cfg.ROBSize {
		return fmt.Errorf("cpu: core %d checkpoint occupancy %d, its ROB window holds %d of %d", c.id, st.Occupancy, occupancy, c.cfg.ROBSize)
	}
	if err := c.gen.Replay(st.GenCalls); err != nil {
		return fmt.Errorf("cpu: core %d: %w", c.id, err)
	}
	copy(c.rob, st.ROB)
	c.head, c.sz, c.occupancy = st.Head, st.Sz, st.Occupancy
	c.pending, c.hasPending, c.tailGap = st.Pending, st.HasPending, st.TailGap
	c.retired = st.Retired
	c.waiting = waiting
	c.ReadsIssued, c.WritesIssued, c.FetchStalls = st.ReadsIssued, st.WritesIssued, st.FetchStalls
	c.doneAt = st.DoneAt
	return nil
}
