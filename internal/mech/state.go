// Checkpoint support for the mechanism seam: every backend can export its
// mutable policy state into one flat State value and reinstate it on a
// freshly built backend of the same configuration. Derived structures
// (timing classes, layout tables, refresh schedules) are rebuilt from the
// configuration; only genuinely dynamic state is carried.

package mech

import (
	"fmt"
	"sort"

	"repro/internal/mcr"
)

// IntPair is one (key, value) entry of an exported counter map, sorted by
// key so exports are deterministic.
type IntPair struct {
	K, V int
}

// State is the mutable state of one mechanism backend, flattened for
// serialization. Fields a backend does not model stay zero: the MCR
// backend fills Mode/ModeGen, NUAT fills Counter, CLR fills the map
// exports. Quarantined and Stats are shared by every backend.
type State struct {
	// Quarantined is the demoted-row set, ascending.
	Quarantined []int
	Stats       Stats

	// Mode/ModeGen mirror the MCR mode register (ModeGen 0 = never
	// programmed, as for combined-layout devices before any MRS).
	Mode    mcr.Mode
	ModeGen int

	// Counter is NUAT's global REF progress.
	Counter int

	// Acts, Marked, Banned and Budget are CLR's alone: per-row activation
	// counts of uncoupled rows, the coupled pair bases, the pair bases
	// never coupled again, and the pairs coupled per sub-array.
	Acts   []IntPair
	Marked []int
	Banned []int
	Budget []IntPair
}

// exportIntMap flattens a counter map into sorted pairs.
func exportIntMap(m map[int]int) []IntPair {
	if len(m) == 0 {
		return nil
	}
	out := make([]IntPair, 0, len(m))
	for k, v := range m { //mcrlint:allow determinism sorted immediately below, order-free
		out = append(out, IntPair{K: k, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// importIntMap rebuilds a counter map from exported pairs (always non-nil,
// matching the backends' eagerly allocated maps).
func importIntMap(pairs []IntPair) map[int]int {
	m := make(map[int]int, len(pairs))
	for _, p := range pairs {
		m[p.K] = p.V
	}
	return m
}

// exportSetMap flattens a membership map into a sorted slice.
func exportSetMap(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m { //mcrlint:allow determinism sorted immediately below, order-free
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// importSetMap rebuilds a membership map from a sorted export.
func importSetMap(rows []int) map[int]bool {
	m := make(map[int]bool, len(rows))
	for _, r := range rows {
		m[r] = true
	}
	return m
}

// exportBase fills the state every backend shares.
func (b *base) exportBase() State {
	return State{Quarantined: exportSetMap(b.quarantined), Stats: b.stats}
}

// importBase reinstates the shared state. The quarantine map stays nil
// when the export was empty, matching a fresh backend.
func (b *base) importBase(st State) {
	b.quarantined = nil
	if len(st.Quarantined) > 0 {
		b.quarantined = importSetMap(st.Quarantined)
	}
	b.stats = st.Stats
}

// ExportState implements Mechanism for backends whose only mutable state
// is the shared quarantine set and counters (TL-DRAM).
func (b *base) ExportState() State { return b.exportBase() }

// ImportState implements Mechanism for those same backends.
func (b *base) ImportState(st State) error {
	b.importBase(st)
	return nil
}

// ExportState implements Mechanism: the MCR backend adds its mode
// register (the rest of its machinery is derived from mode + config).
func (m *MCR) ExportState() State {
	st := m.exportBase()
	st.Mode = m.modeReg.Mode()
	st.ModeGen = m.modeReg.Generation()
	return st
}

// ImportState implements Mechanism: when the checkpointed register
// generation differs from the freshly built one, the run performed MRS
// mode switches — replay the final one (rebuilding generator, layout and
// timing classes exactly as the live path does) and pin the register to
// the exact checkpointed generation.
func (m *MCR) ImportState(st State) error {
	m.importBase(st)
	if st.ModeGen == m.modeReg.Generation() {
		return nil
	}
	if err := m.SetMode(st.Mode, 0); err != nil {
		return fmt.Errorf("mech: mcr: replaying checkpointed mode: %w", err)
	}
	return m.modeReg.Restore(st.Mode, st.ModeGen)
}

// ExportState implements Mechanism: NUAT adds its REF progress counter.
func (s *NUAT) ExportState() State {
	st := s.exportBase()
	st.Counter = s.counter
	return st
}

// ImportState implements Mechanism.
func (s *NUAT) ImportState(st State) error {
	s.importBase(st)
	s.counter = st.Counter
	return nil
}

// ExportState implements Mechanism: CLR adds its hotness counters, the
// coupled pair bases, the re-coupling ban list and the per-sub-array pair
// budget.
func (c *CLR) ExportState() State {
	st := c.exportBase()
	st.Acts = exportIntMap(c.acts)
	st.Marked = exportSetMap(c.coupled)
	st.Banned = exportSetMap(c.banned)
	st.Budget = exportIntMap(c.pairs)
	return st
}

// ImportState implements Mechanism.
func (c *CLR) ImportState(st State) error {
	c.importBase(st)
	c.acts = importIntMap(st.Acts)
	c.coupled = importSetMap(st.Marked)
	c.banned = importSetMap(st.Banned)
	c.pairs = importIntMap(st.Budget)
	return nil
}
