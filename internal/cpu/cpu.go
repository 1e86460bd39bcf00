// Package cpu models the out-of-order cores of the paper's Table 4 system
// in the USIMM style: a 3.2 GHz core with a 128-entry reorder buffer,
// 4-wide fetch and 2-wide retire, driven by a trace. Non-memory
// instructions flow through a fixed-depth pipeline; reads occupy their ROB
// entry until the memory controller returns data and block retirement at
// the ROB head; writes retire as soon as the write queue accepts them.
package cpu

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Config mirrors the processor row of paper Table 4.
type Config struct {
	ROBSize       int // 128
	FetchWidth    int // 4 instructions per CPU cycle
	RetireWidth   int // 2 instructions per CPU cycle
	PipelineDepth int // 10 (constant fill latency)
}

// DefaultConfig returns the paper's core configuration.
func DefaultConfig() Config {
	return Config{ROBSize: 128, FetchWidth: 4, RetireWidth: 2, PipelineDepth: 10}
}

// Upper bounds far above Table 4's core (ROB 128, fetch 4, depth 10): New
// allocates the ROB, and the core waits out the fill cycle by cycle.
const (
	MaxROBSize       = 1 << 16
	maxWidth         = 64
	maxPipelineDepth = 1 << 10
)

// Validate checks the configuration.
func (c Config) Validate() error {
	return errors.Join(
		core.Within("cpu: ROBSize", c.ROBSize, core.Closed, 1, MaxROBSize),
		core.Within("cpu: FetchWidth", c.FetchWidth, core.Closed, 1, maxWidth),
		core.Within("cpu: RetireWidth", c.RetireWidth, core.Closed, 1, maxWidth),
		core.Within("cpu: PipelineDepth", c.PipelineDepth, core.Closed, 0, maxPipelineDepth),
	)
}

// MemorySystem is the controller interface the core dispatches through.
type MemorySystem interface {
	// EnqueueRead queues a read for the line; returns the completion id.
	EnqueueRead(line int64, coreID int, now int64) (int64, bool)
	// EnqueueWrite queues a write; false when the write queue is full.
	EnqueueWrite(line int64, coreID int, now int64) bool
}

// robEntry is one ROB slot: either a run of non-memory instructions
// (Count > 0, ReadID < 0) or a single memory read in flight. The fields
// are exported because the ring is checkpointed as it stands (State.ROB)
// and gob only carries exported fields.
type robEntry struct {
	Count  int   // non-memory instructions represented (1 for a read)
	ReadID int64 // completion id for reads, -1 otherwise
	Done   bool
}

// Core is one trace-driven processor.
type Core struct {
	cfg Config
	id  int
	gen *trace.Generator
	mem MemorySystem

	rob       []robEntry // ring buffer
	head, sz  int        // sz = occupied entries
	occupancy int        // instructions currently in the ROB

	pending    Record // the stalled record waiting for queue space
	hasPending bool
	tailGap    int // non-memory instructions still to fetch before pending

	retired    int64
	totalInsts int64
	waiting    int // reads in the occupied window still waiting on DRAM

	// Metrics.
	ReadsIssued  int64
	WritesIssued int64
	FetchStalls  int64
	doneAt       int64
}

// Record aliases the trace record for the pending slot.
type Record = trace.Record

// New builds a core over its trace generator and memory system.
func New(cfg Config, id int, gen *trace.Generator, mem MemorySystem, totalInsts int64) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil || mem == nil {
		return nil, fmt.Errorf("cpu: core %d needs a generator and a memory system", id)
	}
	return &Core{
		cfg:        cfg,
		id:         id,
		gen:        gen,
		mem:        mem,
		rob:        make([]robEntry, cfg.ROBSize),
		totalInsts: totalInsts,
		doneAt:     -1,
	}, nil
}

// Done reports whether the core has retired its whole trace.
func (c *Core) Done() bool { return c.retired >= c.totalInsts }

// DoneAt returns the CPU cycle the last instruction retired, or -1.
func (c *Core) DoneAt() int64 { return c.doneAt }

// Retired returns the retired instruction count.
func (c *Core) Retired() int64 { return c.retired }

// Complete marks an outstanding read finished (called when the controller
// reports the completion id). The ROB is its own index: completions
// arrive nearly in issue order, so the scan of the occupied window from
// the head ends within a few entries.
func (c *Core) Complete(readID int64) {
	for i, idx := 0, c.head; i < c.sz; i, idx = i+1, c.wrap(idx+1) {
		if e := &c.rob[idx]; e.ReadID == readID && !e.Done {
			e.Done = true
			c.waiting--
			return
		}
	}
}

// Cycle advances the core by one CPU cycle at time now (CPU cycles); memNow
// is the matching memory-controller cycle used for enqueues.
func (c *Core) Cycle(now, memNow int64) {
	if c.Done() {
		return
	}
	c.retire(now)
	c.fetch(memNow)
}

// retire removes up to RetireWidth completed instructions from the ROB
// head and stamps the cycle the last instruction of the trace retired.
func (c *Core) retire(now int64) {
	if now < int64(c.cfg.PipelineDepth) {
		return // pipeline still filling
	}
	c.drain(int64(c.cfg.RetireWidth))
	if c.retired >= c.totalInsts && c.doneAt < 0 {
		c.doneAt = now
	}
}

// drain retires up to budget instructions from the ROB head — whole
// entries, then part of a run — and returns how many it retired. It stops
// at a read still waiting on DRAM, at an empty window and at the last
// instruction of the trace. A popped entry is left with Count 0 and
// ReadID -1, whatever the budget that popped it: one cycle's retirement
// and FastForward's span of them leave the same ring behind.
func (c *Core) drain(budget int64) int64 {
	left := budget
	for left > 0 && c.sz > 0 && c.retired < c.totalInsts {
		e := &c.rob[c.head]
		if e.ReadID >= 0 && !e.Done {
			break // head read still waiting on DRAM
		}
		take := int64(e.Count)
		if take > left {
			take = left
		}
		e.Count -= int(take)
		left -= take
		c.retired += take
		c.occupancy -= int(take)
		if e.Count == 0 {
			e.ReadID = -1
			c.head = c.wrap(c.head + 1)
			c.sz--
		}
	}
	return budget - left
}

// fetch inserts up to FetchWidth instructions, dispatching memory ops to
// the controller. A full ROB or a full memory queue stalls fetch.
func (c *Core) fetch(memNow int64) {
	budget := c.cfg.FetchWidth
	for budget > 0 {
		if c.occupancy >= c.cfg.ROBSize {
			return // ROB full
		}
		if !c.hasPending {
			rec, ok := c.gen.Next()
			if !ok {
				return // trace exhausted; drain remains
			}
			c.pending, c.hasPending = rec, true
			c.tailGap = rec.Gap
		}
		// Fetch the non-memory run preceding the memory op.
		if c.tailGap > 0 {
			n := min(budget, c.tailGap, c.cfg.ROBSize-c.occupancy)
			c.pushNonMem(n)
			c.tailGap -= n
			budget -= n
			continue
		}
		if c.pending.Line < 0 {
			// Pure-gap sentinel record fully fetched.
			c.hasPending = false
			continue
		}
		// Dispatch the memory operation itself (one instruction).
		if c.pending.Kind == core.OpRead {
			id, ok := c.mem.EnqueueRead(c.pending.Line, c.id, memNow)
			if !ok {
				c.FetchStalls++
				return // read queue full
			}
			c.pushEntry(robEntry{Count: 1, ReadID: id})
			c.waiting++
			c.ReadsIssued++
		} else {
			if !c.mem.EnqueueWrite(c.pending.Line, c.id, memNow) {
				c.FetchStalls++
				return // write queue full
			}
			c.pushEntry(robEntry{Count: 1, ReadID: -1, Done: true})
			c.WritesIssued++
		}
		c.hasPending = false
		budget--
	}
}

// pushNonMem merges a run of non-memory instructions into the ROB tail.
func (c *Core) pushNonMem(n int) {
	if n <= 0 {
		return
	}
	if c.sz > 0 {
		e := &c.rob[c.wrap(c.head+c.sz-1)]
		if e.ReadID < 0 {
			e.Count += n
			c.occupancy += n
			return
		}
	}
	c.pushEntry(robEntry{Count: n, ReadID: -1, Done: true})
}

// pushEntry appends a ROB entry.
func (c *Core) pushEntry(e robEntry) {
	c.rob[c.wrap(c.head+c.sz)] = e
	c.sz++
	c.occupancy += e.Count
}

// wrap folds a ring position below twice the ROB size back into the ring.
// A compare, not a modulo: the size is a run-time value and need not be a
// power of two, and these are the hottest leaves of the core model.
func (c *Core) wrap(i int) int {
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	return i
}
