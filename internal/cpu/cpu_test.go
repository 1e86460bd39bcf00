package cpu

import (
	"testing"

	"repro/internal/trace"
)

// fakeMem is a controllable memory system for core tests.
type fakeMem struct {
	readLatency  int64 // cycles from enqueue to completion (delivered by test)
	rejectReads  bool
	rejectWrites bool
	nextID       int64
	inflight     map[int64]int64 // id -> enqueue time
	reads        int64
	writes       int64
}

func newFakeMem() *fakeMem { return &fakeMem{inflight: map[int64]int64{}} }

func (m *fakeMem) EnqueueRead(line int64, coreID int, now int64) (int64, bool) {
	if m.rejectReads {
		return 0, false
	}
	id := m.nextID
	m.nextID++
	m.inflight[id] = now
	m.reads++
	return id, true
}

func (m *fakeMem) EnqueueWrite(line int64, coreID int, now int64) bool {
	if m.rejectWrites {
		return false
	}
	m.writes++
	return true
}

func newCore(t *testing.T, name string, insts int64, mem MemorySystem) *Core {
	t.Helper()
	return newCoreROB(t, name, insts, mem, DefaultConfig().ROBSize)
}

func newCoreROB(t *testing.T, name string, insts int64, mem MemorySystem, rob int) *Core {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ROBSize = rob
	return newCoreCfg(t, cfg, name, 1, insts, mem)
}

// newCoreCfg builds a core of any shape over the named workload's trace.
func newCoreCfg(t testing.TB, cfg Config, name string, seed, insts int64, mem MemorySystem) *Core {
	t.Helper()
	w, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.New(w, seed, insts, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, 0, gen, mem, insts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero ROB must be rejected")
	}
	for _, rob := range []int{MaxROBSize + 1, 1 << 40} {
		bad.ROBSize = rob
		if err := bad.Validate(); err == nil {
			t.Errorf("ROBSize %d accepted; New would allocate it", rob)
		}
	}
	// A pipeline depth of 1<<40 never lets a run finish; the widths get
	// bounds of the same kind.
	for _, set := range []func(*Config){
		func(c *Config) { c.PipelineDepth = -1 },
		func(c *Config) { c.PipelineDepth = maxPipelineDepth + 1 },
		func(c *Config) { c.PipelineDepth = 1 << 40 },
		func(c *Config) { c.FetchWidth = maxWidth + 1 },
		func(c *Config) { c.RetireWidth = 1 << 40 },
	} {
		c := DefaultConfig()
		set(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestNewRejectsNil(t *testing.T) {
	if _, err := New(DefaultConfig(), 0, nil, newFakeMem(), 100); err == nil {
		t.Fatal("nil generator must be rejected")
	}
}

// TestRetiresWholeTrace: with an always-ready memory the core retires every
// instruction and reports a completion time.
func TestRetiresWholeTrace(t *testing.T) {
	mem := newFakeMem()
	c := newCore(t, "black", 20_000, mem)
	var cpuCycle int64
	for !c.Done() && cpuCycle < 10_000_000 {
		c.Cycle(cpuCycle, cpuCycle/4)
		// Instant memory: complete everything immediately.
		for id := range mem.inflight {
			c.Complete(id)
			delete(mem.inflight, id)
		}
		cpuCycle++
	}
	if !c.Done() {
		t.Fatal("core never finished")
	}
	if c.Retired() != 20_000 {
		t.Fatalf("retired %d, want 20000", c.Retired())
	}
	if c.DoneAt() <= 0 {
		t.Fatal("DoneAt must be recorded")
	}
	if mem.reads == 0 || mem.writes == 0 {
		t.Fatal("the workload must issue both reads and writes")
	}
}

// TestIPCBoundedByRetireWidth: the core can never retire faster than
// 2 instructions per cycle.
func TestIPCBoundedByRetireWidth(t *testing.T) {
	mem := newFakeMem()
	c := newCore(t, "fluid", 50_000, mem)
	var cpuCycle int64
	for !c.Done() && cpuCycle < 10_000_000 {
		c.Cycle(cpuCycle, cpuCycle/4)
		for id := range mem.inflight {
			c.Complete(id)
			delete(mem.inflight, id)
		}
		cpuCycle++
	}
	ipc := float64(c.Retired()) / float64(c.DoneAt())
	if ipc > float64(DefaultConfig().RetireWidth) {
		t.Fatalf("IPC %.2f exceeds the retire width", ipc)
	}
	if ipc < 0.5 {
		t.Fatalf("with instant memory the core should be compute-bound, IPC %.2f", ipc)
	}
}

// TestHeadReadBlocksRetirement: a pending read at the ROB head stalls the
// core until Complete is called.
func TestHeadReadBlocksRetirement(t *testing.T) {
	mem := newFakeMem()
	c := newCore(t, "tigr", 10_000, mem)
	// Run without ever completing reads: the core must wedge.
	var cpuCycle int64
	for ; cpuCycle < 100_000; cpuCycle++ {
		c.Cycle(cpuCycle, cpuCycle/4)
	}
	if c.Done() {
		t.Fatal("core finished without memory completions")
	}
	stuck := c.Retired()
	// Now complete the outstanding reads: progress resumes.
	for id := range mem.inflight {
		c.Complete(id)
		delete(mem.inflight, id)
	}
	for end := cpuCycle + 50_000; cpuCycle < end; cpuCycle++ {
		c.Cycle(cpuCycle, cpuCycle/4)
		for id := range mem.inflight {
			c.Complete(id)
			delete(mem.inflight, id)
		}
	}
	if c.Retired() <= stuck {
		t.Fatal("completions must unblock retirement")
	}
}

// TestROBCapacityLimitsOutstanding: without completions the core can have
// at most ROBSize instructions in flight, i.e. fetch stops.
func TestROBCapacityLimitsOutstanding(t *testing.T) {
	mem := newFakeMem()
	c := newCore(t, "tigr", 100_000, mem)
	for cpuCycle := int64(0); cpuCycle < 50_000; cpuCycle++ {
		c.Cycle(cpuCycle, cpuCycle/4)
	}
	// tigr has ~3.8% memory instructions; the ROB (128) fills quickly, so
	// the number of reads dispatched while wedged stays small.
	if mem.reads > 64 {
		t.Fatalf("a wedged core dispatched %d reads; the ROB must bound this", mem.reads)
	}
}

// TestFullWriteQueueStallsFetch: rejected writes show up as fetch stalls
// and the core retries until accepted.
func TestFullWriteQueueStallsFetch(t *testing.T) {
	mem := newFakeMem()
	mem.rejectWrites = true
	c := newCore(t, "comm1", 5_000, mem)
	var cpuCycle int64
	for ; cpuCycle < 200_000 && !c.Done(); cpuCycle++ {
		c.Cycle(cpuCycle, cpuCycle/4)
		for id := range mem.inflight {
			c.Complete(id)
			delete(mem.inflight, id)
		}
	}
	if c.Done() {
		t.Fatal("core should be stuck on the first write")
	}
	if c.FetchStalls == 0 {
		t.Fatal("write rejections must be counted as fetch stalls")
	}
	mem.rejectWrites = false
	for end := cpuCycle + 2_000_000; cpuCycle < end && !c.Done(); cpuCycle++ {
		c.Cycle(cpuCycle, cpuCycle/4)
		for id := range mem.inflight {
			c.Complete(id)
			delete(mem.inflight, id)
		}
	}
	if !c.Done() {
		t.Fatal("core must finish once writes are accepted")
	}
}

// TestPipelineFillDelay: nothing retires before the pipeline depth.
func TestPipelineFillDelay(t *testing.T) {
	mem := newFakeMem()
	c := newCore(t, "black", 1_000, mem)
	for cpuCycle := int64(0); cpuCycle < int64(DefaultConfig().PipelineDepth); cpuCycle++ {
		c.Cycle(cpuCycle, 0)
		if c.Retired() != 0 {
			t.Fatal("retirement before the pipeline filled")
		}
	}
}

// TestDeterministic: two cores over the same trace and memory behave
// identically.
func TestDeterministic(t *testing.T) {
	run := func() (int64, int64) {
		mem := newFakeMem()
		c := newCore(t, "ferret", 30_000, mem)
		var cpuCycle int64
		for !c.Done() && cpuCycle < 10_000_000 {
			c.Cycle(cpuCycle, cpuCycle/4)
			if cpuCycle%3 == 0 { // fixed completion cadence
				for id := range mem.inflight {
					c.Complete(id)
					delete(mem.inflight, id)
				}
			}
			cpuCycle++
		}
		return c.DoneAt(), mem.reads
	}
	a1, r1 := run()
	a2, r2 := run()
	if a1 != a2 || r1 != r2 {
		t.Fatalf("nondeterministic core: (%d,%d) vs (%d,%d)", a1, r1, a2, r2)
	}
}
