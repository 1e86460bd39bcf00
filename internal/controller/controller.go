// Package controller is the memory controller of the simulated system: per
// channel read/write queues with watermark-based write draining, an
// FR-FCFS command scheduler (Rixner et al.), JEDEC refresh management with
// the paper's Refresh-Skipping hook, the physical address mapping, the
// profile-based row allocation hook, and the "multiple latency" support the
// paper adds (per-request MCR awareness; the MCR timing itself lives in the
// device model).
package controller

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/obs"
)

// SchedulerPolicy selects the command scheduling algorithm.
type SchedulerPolicy int

// Supported schedulers.
const (
	// FRFCFS prefers ready row-buffer hits, then the oldest request —
	// the paper's policy.
	FRFCFS SchedulerPolicy = iota
	// FCFS serves strictly in arrival order (ablation).
	FCFS
)

// String names the scheduler policy.
func (p SchedulerPolicy) String() string {
	if p == FCFS {
		return "FCFS"
	}
	return "FR-FCFS"
}

// RowPolicy selects what happens to a row after a column access.
type RowPolicy int

// Supported row policies.
const (
	// OpenPage leaves rows open until a conflict or refresh (paper
	// baseline).
	OpenPage RowPolicy = iota
	// ClosePage precharges as soon as no queued request wants the open
	// row (ablation).
	ClosePage
)

// String names the row policy.
func (p RowPolicy) String() string {
	if p == ClosePage {
		return "close-page"
	}
	return "open-page"
}

// Config mirrors paper Table 4's memory-controller row.
type Config struct {
	ReadQueueCap  int // 32
	WriteQueueCap int // 32
	HighWatermark int // 24: enter write drain
	LowWatermark  int // 8: leave write drain
	Mapping       MappingPolicy
	Scheduler     SchedulerPolicy
	RowPolicy     RowPolicy
	// MaxRefreshDebt is how many tREFI intervals may elapse before a
	// refresh becomes mandatory (JEDEC allows postponing up to 8).
	MaxRefreshDebt int
	// StarvationLimit caps FR-FCFS hit-first reordering: once the oldest
	// request has waited this many memory cycles, row hits may no longer
	// bypass it. 0 disables the cap (pure FR-FCFS, the paper's policy).
	StarvationLimit int64
}

// DefaultConfig returns the paper's controller configuration.
func DefaultConfig() Config {
	return Config{
		ReadQueueCap:   32,
		WriteQueueCap:  32,
		HighWatermark:  24,
		LowWatermark:   8,
		Mapping:        PageInterleave,
		Scheduler:      FRFCFS,
		RowPolicy:      OpenPage,
		MaxRefreshDebt: 8,
	}
}

// Validate checks the controller configuration.
func (c Config) Validate() error {
	switch {
	case c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0:
		return fmt.Errorf("controller: queue capacities must be positive (%d, %d)", c.ReadQueueCap, c.WriteQueueCap)
	case c.HighWatermark <= c.LowWatermark:
		return fmt.Errorf("controller: high watermark %d must exceed low watermark %d", c.HighWatermark, c.LowWatermark)
	case c.HighWatermark > c.WriteQueueCap:
		return fmt.Errorf("controller: high watermark %d exceeds write queue capacity %d", c.HighWatermark, c.WriteQueueCap)
	case c.LowWatermark < 0:
		return fmt.Errorf("controller: low watermark must be non-negative, got %d", c.LowWatermark)
	case c.MaxRefreshDebt < 1:
		return fmt.Errorf("controller: MaxRefreshDebt must be at least 1, got %d", c.MaxRefreshDebt)
	}
	return nil
}

// request is one queued memory request. PreAt/ActAt record when the
// request's own PRE/ACT issued (-1 until then); RasBlocked/RefBlocked
// count scheduler cycles the request's next command was gated by the
// open row's tRAS/tWR window or a refresh in flight. The stall
// accounter (internal/obs) partitions the retired latency from these
// markers. Bank caches Addr's flattened bank index: the scheduler probes
// it per request per cycle. CoreID is narrow so that it shares a word
// with Kind and the struct is no larger for carrying Bank — the queues
// grow by append, and their allocation scales with it. The fields are
// exported because the queues are checkpointed as they stand
// (State.ReadQ/WriteQ) and gob only carries exported fields; Bank
// travels too and ImportState checks it against Addr.
type request struct {
	ID       int64
	Kind     core.OpKind
	CoreID   int32
	Addr     core.Address
	Bank     int
	ArriveAt int64

	PreAt, ActAt           int64
	RasBlocked, RefBlocked int64
}

// Completion reports a finished read back to the CPU model.
type Completion struct {
	ID       int64
	CoreID   int
	DoneAt   int64 // memory cycle the data burst completed
	ArriveAt int64
}

// rankRefresh tracks the refresh obligation of one rank (checkpointed as
// State.Refresh).
type rankRefresh struct {
	NextDue int64 // cycle the next tREFI interval elapses
	Debt    int   // intervals elapsed but not yet refreshed
	Counter int   // REF sequence number (13-bit window position)
}

// Stats aggregates controller-level counters.
type Stats struct {
	ReadsQueued      int64
	WritesQueued     int64
	ReadsDone        int64
	WritesDone       int64
	RowHits          int64
	RowMisses        int64
	RowConflicts     int64
	MCRReads         int64 // column reads served from MCR rows
	TotalReadLatency int64 // memory cycles, arrival to data completion
	ForcedRefreshes  int64
	ModeChanges      int64 // MRS mode switches applied (degradation path)
}

// Controller drives one dram.Device.
type Controller struct {
	cfg    Config
	dev    *dram.Device
	geom   core.Geometry
	mapper *AddressMapper
	rows   *alloc.RowMap

	readQ  [][]request // per channel
	writeQ [][]request
	drain  []bool // per channel write-drain mode

	refresh []rankRefresh // per (channel, rank)

	nextID      int64
	completions []Completion
	stats       Stats
	tREFI       int64

	// touched is schedulePass's per-pass scratch, so that the per-cycle
	// scheduler never allocates: one mark per bank, cleared for the
	// channel at the start of each pass, and behind them, in the slice's
	// spare capacity, room for one queue position per bank — the walk's
	// bank-preparation candidates. Narrow, one allocation and no second
	// slice header on purpose: NewSim's bytes are the benchmark's
	// setup_s. Dead between passes, so not checkpointed.
	touched []int32

	// The memo of the last Tick's walk (scheduler.go, nextevent.go):
	// walkedAt is the cycle it ran at (noWalk once anything it stood on
	// changed), wake the earliest later cycle at which a Tick could act
	// differently, blocked the stall counters it charged. Rebuilt by
	// every Tick, so not checkpointed: a restored controller starts
	// without a memo.
	walkedAt int64
	wake     int64
	blocked  []*int64

	// pendingMode, when non-nil, is a requested MRS mode switch the
	// controller is draining toward (see modechange.go).
	pendingMode *mcr.Mode

	// obs/tr, when non-nil, receive row-buffer outcomes, the per-read
	// stall attribution and MRS events; nil-safe no-ops otherwise.
	obs *obs.Registry
	tr  *obs.Tracer
}

// New builds a controller over a device, applying the given row allocation
// (nil for identity).
func New(cfg Config, dev *dram.Device, rows *alloc.RowMap) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom := dev.Config().Geom
	mapper, err := NewAddressMapper(geom, cfg.Mapping)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = alloc.Identity(geom)
	}
	banks := geom.Channels * geom.Ranks * geom.Banks
	c := &Controller{
		cfg:      cfg,
		dev:      dev,
		geom:     geom,
		mapper:   mapper,
		rows:     rows,
		readQ:    make([][]request, geom.Channels),
		writeQ:   make([][]request, geom.Channels),
		drain:    make([]bool, geom.Channels),
		refresh:  make([]rankRefresh, geom.Channels*geom.Ranks),
		touched:  make([]int32, banks, 2*banks),
		walkedAt: noWalk,
		blocked:  make([]*int64, 0, 2*banks),
		tREFI:    int64(dev.Timings().Normal.TREFI),
	}
	for i := range c.refresh {
		c.refresh[i].NextDue = c.tREFI
	}
	return c, nil
}

// Device returns the controlled device.
func (c *Controller) Device() *dram.Device { return c.dev }

// Mapper returns the address mapper.
func (c *Controller) Mapper() *AddressMapper { return c.mapper }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetObservability attaches a metrics registry and an event tracer
// (either may be nil). Attach before the first Tick.
func (c *Controller) SetObservability(reg *obs.Registry, tr *obs.Tracer) {
	c.obs, c.tr = reg, tr
}

// decode maps a line number to its final DRAM coordinates, applying the
// profile-based row allocation.
func (c *Controller) decode(line int64) core.Address {
	return c.rows.Map(c.mapper.Decode(line))
}

// newRequest builds the queue entry of a request arriving at now, with no
// PRE/ACT of its own issued yet.
func (c *Controller) newRequest(id int64, kind core.OpKind, a core.Address, coreID int, now int64) request {
	return request{
		ID: id, Kind: kind, Addr: a, Bank: a.BankID(c.geom), ArriveAt: now, PreAt: -1, ActAt: -1,
		CoreID: int32(coreID),
	}
}

// CanEnqueueRead reports whether the read queue for line's channel has room.
func (c *Controller) CanEnqueueRead(line int64) bool {
	return len(c.readQ[c.decode(line).Channel]) < c.cfg.ReadQueueCap
}

// CanEnqueueWrite reports whether the write queue for line's channel has room.
func (c *Controller) CanEnqueueWrite(line int64) bool {
	return len(c.writeQ[c.decode(line).Channel]) < c.cfg.WriteQueueCap
}

// EnqueueRead queues a read and returns its completion id; ok is false when
// the queue is full.
func (c *Controller) EnqueueRead(line int64, coreID int, now int64) (int64, bool) {
	a := c.decode(line)
	if len(c.readQ[a.Channel]) >= c.cfg.ReadQueueCap {
		return 0, false
	}
	// Read-around-write: a pending write to the same line can serve the
	// read immediately (store forwarding at the controller). By index and
	// row first: ranging by value copies each 104-byte request, and most
	// queued writes are to other rows than this five-word address.
	wq := c.writeQ[a.Channel]
	for i := range wq {
		if wq[i].Addr.Row == a.Row && wq[i].Addr == a {
			id := c.nextID
			c.nextID++
			// Forwarded: a completion to deliver, so no span to skip.
			c.walkedAt = noWalk
			c.completions = append(c.completions, Completion{ID: id, CoreID: coreID, DoneAt: now + 1, ArriveAt: now}) // DrainCompletions recycles this slice's capacity; steady state appends in place
			c.stats.ReadsQueued++
			c.stats.ReadsDone++
			c.stats.TotalReadLatency++
			// Forwarded reads never touch the device: their one cycle is
			// pure queueing in the stall attribution.
			c.obs.ObserveRead(obs.AttributeRead(now, -1, -1, now+1, now+1, 0, 0))
			return id, true
		}
	}
	id := c.nextID
	c.nextID++
	// The last walk did not see this request.
	c.walkedAt = noWalk
	c.readQ[a.Channel] = append(c.readQ[a.Channel], c.newRequest(id, core.OpRead, a, coreID, now)) // bounded by ReadQueueCap; capacity stops growing after the first full queue
	c.stats.ReadsQueued++
	return id, true
}

// EnqueueWrite queues a write; false when the queue is full. Writes
// complete (from the CPU's view) at enqueue.
func (c *Controller) EnqueueWrite(line int64, coreID int, now int64) bool {
	a := c.decode(line)
	if len(c.writeQ[a.Channel]) >= c.cfg.WriteQueueCap {
		return false
	}
	// The last walk did not see this request.
	c.walkedAt = noWalk
	c.writeQ[a.Channel] = append(c.writeQ[a.Channel], c.newRequest(-1, core.OpWrite, a, coreID, now)) // bounded by WriteQueueCap; capacity stops growing after the first full queue
	c.stats.WritesQueued++
	return true
}

// Pending returns the number of queued reads and writes.
func (c *Controller) Pending() (reads, writes int) {
	for ch := range c.readQ {
		reads += len(c.readQ[ch])
		writes += len(c.writeQ[ch])
	}
	return
}

// DrainCompletions returns the finished-read notifications and resets the
// internal list, keeping its capacity so the steady-state cycle loop never
// reallocates it. The returned slice aliases that storage: it is valid
// until the next Tick or Enqueue call.
func (c *Controller) DrainCompletions() []Completion {
	out := c.completions
	c.completions = c.completions[:0]
	return out
}
