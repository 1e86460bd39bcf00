// Package core defines the shared vocabulary of the MCR-DRAM simulator:
// memory-system geometry, decoded addresses, DRAM commands and the clock
// conventions every other package builds on.
//
// The conventions follow the paper's baseline configuration (Table 4):
// DDR3-1600 (800 MHz memory clock, 1.25 ns cycle), a 3.2 GHz processor
// (4 CPU cycles per memory cycle), one channel with 2 ranks of 8 banks,
// and 8 KB rows of 128 cache lines.
package core

import (
	"fmt"
	"math/bits"
)

// Clock conventions. All DRAM state machines run on the memory clock; the
// processor model converts with CPUCyclesPerMemCycle.
const (
	// MemClockMHz is the DDR3 memory bus clock (DDR3-1600: 800 MHz).
	MemClockMHz = 800
	// MemCycleNS is the length of one memory-clock cycle in nanoseconds.
	MemCycleNS = 1000.0 / MemClockMHz
	// CPUClockMHz is the processor core clock (paper Table 4: 3.2 GHz).
	CPUClockMHz = 3200
	// CPUCyclesPerMemCycle converts memory cycles to CPU cycles.
	CPUCyclesPerMemCycle = CPUClockMHz / MemClockMHz
	// CacheLineBytes is the size of one column access (one cache line).
	CacheLineBytes = 64
	// RetentionWindowMs is the worst-case cell retention window in
	// milliseconds (JEDEC normal temperature range, paper Sec. 2): every
	// cell must be refreshed at least once per window. It lives here so
	// both internal/circuit (below internal/timing) and the rest of the
	// stack (via timing.RetentionWindowMs) share one definition.
	RetentionWindowMs = 64
)

// Geometry describes the DRAM organization of one memory system.
type Geometry struct {
	Channels    int // independent memory channels
	Ranks       int // ranks per channel
	Banks       int // banks per rank
	Rows        int // rows per bank
	Columns     int // cache lines per row
	SubarrayLog int // log2(rows per subarray); 512-row subarrays -> 9
}

// SingleCoreGeometry is the paper's 4 GB single-core configuration:
// 1 channel x 2 ranks x 8 banks x 32768 rows x 128 lines x 64 B = 4 GB.
func SingleCoreGeometry() Geometry {
	return Geometry{Channels: 1, Ranks: 2, Banks: 8, Rows: 32768, Columns: 128, SubarrayLog: 9}
}

// MultiCoreGeometry is the paper's 16 GB quad-core configuration
// (131072 rows per bank).
func MultiCoreGeometry() Geometry {
	return Geometry{Channels: 1, Ranks: 2, Banks: 8, Rows: 131072, Columns: 128, SubarrayLog: 9}
}

// Upper bounds on each geometry field. The models allocate per channel,
// rank, bank and row, so a hostile value must be refused by Validate
// before anything is sized from it. Each bound sits far above the paper's
// configurations (1 channel, 2 ranks, 8 banks, 131 072 rows, 128 columns),
// and together they keep TotalBytes within 2^54, far from overflow.
const (
	MaxChannels = 16
	MaxRanks    = 16
	MaxBanks    = 64
	MaxRows     = 1 << 22
	MaxColumns  = 1 << 12
)

// Validate reports whether every geometry field is a power of two within
// its Max* bound, returning a descriptive error otherwise.
func (g Geometry) Validate() error {
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"core: geometry Channels", g.Channels, MaxChannels},
		{"core: geometry Ranks", g.Ranks, MaxRanks},
		{"core: geometry Banks", g.Banks, MaxBanks},
		{"core: geometry Rows", g.Rows, MaxRows},
		{"core: geometry Columns", g.Columns, MaxColumns},
	} {
		if err := Within(f.name, f.v, Closed, 1, f.max); err != nil {
			return err
		}
		if f.v&(f.v-1) != 0 {
			return fmt.Errorf("%s must be a power of two, got %d", f.name, f.v)
		}
	}
	// Rows is a power of two by now: a subarray holds at most all of them.
	return Within("core: geometry SubarrayLog", g.SubarrayLog, Closed, 0, bits.TrailingZeros(uint(g.Rows)))
}

// RowBytes returns the size of one row in bytes.
func (g Geometry) RowBytes() int64 { return int64(g.Columns) * CacheLineBytes }

// TotalBytes returns the capacity of the memory system in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.Channels) * int64(g.Ranks) * int64(g.Banks) * int64(g.Rows) * g.RowBytes()
}

// TotalRows returns the number of rows across all banks, ranks and channels.
func (g Geometry) TotalRows() int64 {
	return int64(g.Channels) * int64(g.Ranks) * int64(g.Banks) * int64(g.Rows)
}

// RowsPerSubarray returns the number of rows in one subarray.
func (g Geometry) RowsPerSubarray() int { return 1 << g.SubarrayLog }

// Address is a fully decoded DRAM address.
type Address struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Column  int
}

// String renders the address in ch/rank/bank/row/col order.
func (a Address) String() string {
	return fmt.Sprintf("ch%d r%d b%d row%d col%d", a.Channel, a.Rank, a.Bank, a.Row, a.Column)
}

// BankID flattens (channel, rank, bank) into a dense index for per-bank
// bookkeeping tables.
func (a Address) BankID(g Geometry) int {
	return (a.Channel*g.Ranks+a.Rank)*g.Banks + a.Bank
}

// CommandKind enumerates the DRAM commands the controller can issue.
type CommandKind uint8

// DRAM command kinds.
const (
	CmdActivate  CommandKind = iota // open a row (or an MCR) in a bank
	CmdRead                         // column read burst
	CmdWrite                        // column write burst
	CmdPrecharge                    // close the open row of a bank
	CmdRefresh                      // per-rank auto refresh
	CmdMRS                          // mode register set (reconfigures MCR-mode)
)

var commandNames = [...]string{"ACT", "RD", "WR", "PRE", "REF", "MRS"}

// String returns the JEDEC-style mnemonic of the command.
func (k CommandKind) String() string {
	if int(k) < len(commandNames) {
		return commandNames[k]
	}
	return fmt.Sprintf("CommandKind(%d)", uint8(k))
}

// OpKind distinguishes memory request directions.
type OpKind uint8

// Memory operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// String returns "read" or "write".
func (o OpKind) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// NSToMemCycles converts a latency in nanoseconds to a (ceiling) number of
// memory-clock cycles; every timing constraint must round up to be safe.
func NSToMemCycles(ns float64) int {
	if ns <= 0 {
		return 0
	}
	c := int(ns / MemCycleNS)
	if float64(c)*MemCycleNS < ns-1e-9 {
		c++
	}
	return c
}

// MemCyclesToNS converts memory cycles back to nanoseconds.
func MemCyclesToNS(c int64) float64 { return float64(c) * MemCycleNS }
