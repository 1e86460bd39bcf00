package mcr

import (
	"fmt"
	"testing"
	"testing/quick"
)

// The paper's Table 2 model, kept beside the tests that check it: the
// physical-address mapping that prevents data collision and enables
// dynamic MCR-mode changes when mode [100%reg] is used.
//
// The OS is told the DRAM is N/K as large; the memory controller maps the
// row-address LSBs R0..R(lgK-1) onto the *top* physical-address bits and
// forces the missing ones to zero. In 4x mode only rows ...00 are
// reachable; relaxing to 2x exposes rows ...00 and ...10 (R0 stays zero,
// R1 becomes the new top OS bit), so every page that was reachable before a
// relaxation is still reachable at the same physical row afterwards — no
// data migration is needed.
//
// The simulator itself never remaps OS pages; the one mode change it
// issues (the resilience relax) relies on the guarantee these tests pin.

// CapacityMapper implements the Table 2 mapping for one mode change level.
type CapacityMapper struct {
	k       int // current Kx mode (1 = off/original)
	rowBits int // row-address width of the device
}

// NewCapacityMapper builds a mapper for a device with rowBits row-address
// bits operating in Kx mode.
func NewCapacityMapper(k, rowBits int) (*CapacityMapper, error) {
	switch k {
	case 1, 2, 4:
	default:
		return nil, fmt.Errorf("mcr: mapper K must be 1, 2 or 4, got %d", k)
	}
	if rowBits < 3 {
		return nil, fmt.Errorf("mcr: rowBits must be at least 3, got %d", rowBits)
	}
	return &CapacityMapper{k: k, rowBits: rowBits}, nil
}

// lg returns log2(K): the number of forced-zero row LSBs.
func (m *CapacityMapper) lg() int {
	switch m.k {
	case 2:
		return 1
	case 4:
		return 2
	}
	return 0
}

// OSVisibleRows returns how many of totalRows the OS may allocate: N/K.
func (m *CapacityMapper) OSVisibleRows(totalRows int) int { return totalRows / m.k }

// MapRow translates an OS-visible row number into the physical row the
// controller accesses. Per Table 2, OS row bit (rowBits-lgK-1-i) supplies
// physical row bit (lgK+i) — i.e. the OS address is shifted up past the
// forced-zero LSBs with its top bits becoming R1, R0 in relaxed modes.
func (m *CapacityMapper) MapRow(osRow int) (int, error) {
	lg := m.lg()
	if osRow < 0 || osRow >= 1<<(m.rowBits-lg) {
		return 0, fmt.Errorf("mcr: OS row %d out of range for %d visible row bits", osRow, m.rowBits-lg)
	}
	// In Kx mode the OS address has rowBits-lg significant bits; they map
	// onto physical bits [lg, rowBits), leaving R(lg-1)..R0 = 0.
	return osRow << lg, nil
}

// Accessible reports whether a physical row is reachable through the
// mapping (Table 2's "Accessible Row" column: R1R0=00 for 4x; 00 or 10 for
// 2x, i.e. R0=0; everything for 1x).
func (m *CapacityMapper) Accessible(physRow int) bool {
	return physRow&((1<<m.lg())-1) == 0
}

// RelaxTo returns a mapper for a relaxed mode (smaller or equal K) on the
// same device. Every row accessible under the current mode remains
// accessible — and keeps its physical location — under the relaxed one, so
// the change is safe without copying data. Tightening (larger K) is
// rejected: it would orphan populated rows.
func (m *CapacityMapper) RelaxTo(k int) (*CapacityMapper, error) {
	if k > m.k {
		return nil, fmt.Errorf("mcr: cannot tighten mapping from %dx to %dx without migrating data", m.k, k)
	}
	return NewCapacityMapper(k, m.rowBits)
}

// TestTable2Mapping pins the paper's Table 2: which physical rows (by their
// two LSBs R1R0) are reachable in each mode.
func TestTable2Mapping(t *testing.T) {
	cases := []struct {
		k          int
		accessible map[int]bool // R1R0 -> reachable
		visible    int          // OS-visible rows out of 16
	}{
		{4, map[int]bool{0b00: true, 0b01: false, 0b10: false, 0b11: false}, 4},
		{2, map[int]bool{0b00: true, 0b01: false, 0b10: true, 0b11: false}, 8},
		{1, map[int]bool{0b00: true, 0b01: true, 0b10: true, 0b11: true}, 16},
	}
	for _, c := range cases {
		m, err := NewCapacityMapper(c.k, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.OSVisibleRows(16); got != c.visible {
			t.Errorf("K=%d: visible rows = %d, want %d", c.k, got, c.visible)
		}
		reached := map[int]bool{}
		for os := 0; os < m.OSVisibleRows(16); os++ {
			phys, err := m.MapRow(os)
			if err != nil {
				t.Fatal(err)
			}
			reached[phys] = true
			if !m.Accessible(phys) {
				t.Errorf("K=%d: mapped row %d reported inaccessible", c.k, phys)
			}
		}
		for phys := 0; phys < 16; phys++ {
			want := c.accessible[phys&3]
			if reached[phys] != want {
				t.Errorf("K=%d: row %04b reachable=%v, want %v", c.k, phys, reached[phys], want)
			}
			if m.Accessible(phys) != want {
				t.Errorf("K=%d: Accessible(%04b) = %v, want %v", c.k, phys, m.Accessible(phys), want)
			}
		}
	}
}

func TestNewCapacityMapperRejects(t *testing.T) {
	if _, err := NewCapacityMapper(3, 10); err == nil {
		t.Fatal("K=3 must be rejected")
	}
	if _, err := NewCapacityMapper(2, 2); err == nil {
		t.Fatal("tiny row space must be rejected")
	}
}

func TestMapRowRange(t *testing.T) {
	m, err := NewCapacityMapper(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MapRow(-1); err == nil {
		t.Fatal("negative OS row must be rejected")
	}
	if _, err := m.MapRow(4); err == nil {
		t.Fatal("OS row beyond the visible space must be rejected")
	}
}

// TestRelaxPreservesPlacement pins the dynamic-mode guarantee: after
// relaxing 4x -> 2x -> 1x, every previously reachable OS row still maps to
// the same physical row.
func TestRelaxPreservesPlacement(t *testing.T) {
	m4, err := NewCapacityMapper(4, 15)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m4.RelaxTo(2)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := m2.RelaxTo(1)
	if err != nil {
		t.Fatal(err)
	}
	for os := 0; os < 1<<13; os += 97 {
		p4, err := m4.MapRow(os)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := m2.MapRow(os << 1) // same page, shifted OS numbering
		if err != nil {
			t.Fatal(err)
		}
		p1, err := m1.MapRow(os << 2)
		if err != nil {
			t.Fatal(err)
		}
		if p4 != p2 || p4 != p1 {
			t.Fatalf("os row %d moved: 4x->%d 2x->%d 1x->%d", os, p4, p2, p1)
		}
	}
}

func TestRelaxRejectsTightening(t *testing.T) {
	m2, err := NewCapacityMapper(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.RelaxTo(4); err == nil {
		t.Fatal("tightening 2x -> 4x must be rejected")
	}
}

// Property: MapRow is injective and always lands on an accessible row.
func TestMapRowInjectiveQuick(t *testing.T) {
	m, err := NewCapacityMapper(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	err = quick.Check(func(raw uint16) bool {
		os := int(raw) % (1 << 11)
		phys, err := m.MapRow(os)
		if err != nil {
			return false
		}
		if prev, ok := seen[phys]; ok && prev != os {
			return false
		}
		seen[phys] = os
		return m.Accessible(phys)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
