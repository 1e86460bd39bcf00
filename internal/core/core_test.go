package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	if err := SingleCoreGeometry().Validate(); err != nil {
		t.Fatalf("single-core geometry invalid: %v", err)
	}
	if err := MultiCoreGeometry().Validate(); err != nil {
		t.Fatalf("multi-core geometry invalid: %v", err)
	}
	bad := SingleCoreGeometry()
	bad.Banks = 6
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two banks must be rejected")
	}
	bad = SingleCoreGeometry()
	bad.Rows = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero rows must be rejected")
	}
	bad = SingleCoreGeometry()
	for _, log := range []int{30, -1, 1 << 40} {
		bad.SubarrayLog = log
		if err := bad.Validate(); err == nil {
			t.Fatalf("SubarrayLog %d must be rejected", log)
		}
	}
	// Powers of two past each bound: refused before anything is sized
	// from them.
	for _, c := range []struct {
		name string
		set  func(*Geometry)
	}{
		{"Channels", func(g *Geometry) { g.Channels = 1 << 40 }},
		{"Ranks", func(g *Geometry) { g.Ranks = 1 << 40 }},
		{"Banks", func(g *Geometry) { g.Banks = 1 << 40 }},
		{"Rows", func(g *Geometry) { g.Rows = 1 << 40 }},
		{"Columns", func(g *Geometry) { g.Columns = 1 << 40 }},
		{"Rows just past the bound", func(g *Geometry) { g.Rows = 2 * MaxRows }},
	} {
		g := SingleCoreGeometry()
		c.set(&g)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "must be in [1, ") {
			t.Errorf("%s: Validate = %v, want an upper-bound error", c.name, err)
		}
	}
}

func TestPaperCapacities(t *testing.T) {
	// Table 4: 4 GB single-core, 16 GB multi-core.
	if got := SingleCoreGeometry().TotalBytes(); got != 4<<30 {
		t.Errorf("single-core capacity = %d, want 4 GiB", got)
	}
	if got := MultiCoreGeometry().TotalBytes(); got != 16<<30 {
		t.Errorf("multi-core capacity = %d, want 16 GiB", got)
	}
	if got := SingleCoreGeometry().RowBytes(); got != 8192 {
		t.Errorf("row size = %d, want 8 KiB", got)
	}
}

func TestClockConstants(t *testing.T) {
	if CPUCyclesPerMemCycle != 4 {
		t.Fatalf("3.2 GHz / 800 MHz must be 4, got %d", CPUCyclesPerMemCycle)
	}
	if MemCycleNS != 1.25 {
		t.Fatalf("memory cycle must be 1.25 ns, got %g", MemCycleNS)
	}
}

func TestBankIDDense(t *testing.T) {
	g := SingleCoreGeometry()
	seen := make(map[int]bool)
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			for b := 0; b < g.Banks; b++ {
				id := Address{Channel: ch, Rank: r, Bank: b}.BankID(g)
				if seen[id] {
					t.Fatalf("duplicate bank id %d", id)
				}
				seen[id] = true
				if id < 0 || id >= g.Channels*g.Ranks*g.Banks {
					t.Fatalf("bank id %d out of range", id)
				}
			}
		}
	}
}

func TestNSToMemCyclesRoundsUp(t *testing.T) {
	cases := []struct {
		ns   float64
		want int
	}{
		{0, 0}, {-5, 0},
		{1.25, 1}, {1.26, 2}, {2.5, 2},
		{13.75, 11}, {35, 28}, {6.90, 6}, {20.00, 16},
		{7812.5, 6250},
	}
	for _, c := range cases {
		if got := NSToMemCycles(c.ns); got != c.want {
			t.Errorf("NSToMemCycles(%g) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// Property: the cycle count always covers the requested latency.
func TestNSToMemCyclesCoversLatency(t *testing.T) {
	err := quick.Check(func(raw float64) bool {
		ns := math.Mod(math.Abs(raw), 1e6)
		c := NSToMemCycles(ns)
		return float64(c)*MemCycleNS >= ns-1e-6 && float64(c)*MemCycleNS < ns+MemCycleNS+1e-6
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMemCyclesToNSInverse(t *testing.T) {
	if got := MemCyclesToNS(8); got != 10 {
		t.Fatalf("8 cycles = %g ns, want 10", got)
	}
}

func TestCommandKindString(t *testing.T) {
	want := map[CommandKind]string{
		CmdActivate: "ACT", CmdRead: "RD", CmdWrite: "WR",
		CmdPrecharge: "PRE", CmdRefresh: "REF", CmdMRS: "MRS",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if CommandKind(99).String() == "" {
		t.Error("unknown command kinds need a diagnostic string")
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("OpKind strings wrong")
	}
}

func TestAddressString(t *testing.T) {
	a := Address{Channel: 1, Rank: 0, Bank: 7, Row: 123, Column: 9}
	if got := a.String(); got != "ch1 r0 b7 row123 col9" {
		t.Fatalf("Address.String() = %q", got)
	}
}
