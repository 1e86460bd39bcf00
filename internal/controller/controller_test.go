package controller

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// encode is the inverse of Decode (identity-policy component first): the
// tests use it to assert the mapping is a bijection.
func encode(m *AddressMapper, a core.Address) int64 {
	bank := a.Bank
	row := a.Row
	switch m.policy {
	case PageInterleave:
		// identity, matching Decode
	case PermutationInterleave:
		bank ^= a.Row & (m.geom.Banks - 1)
	case BitReversal:
		row = reverseBits(row, m.rowBits)
	}
	line := int64(row)
	line = line<<m.rankBits | int64(a.Rank)
	line = line<<m.bankBits | int64(bank)
	line = line<<m.chBits | int64(a.Channel)
	line = line<<m.colBits | int64(a.Column)
	return line
}

func newCtrl(t *testing.T, mode mcr.Mode, mut func(*Config)) *Controller {
	t.Helper()
	dev, err := dram.New(dram.DefaultConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.ReadQueueCap = 0 },
		func(c *Config) { c.WriteQueueCap = -1 },
		func(c *Config) { c.HighWatermark = c.LowWatermark },
		func(c *Config) { c.HighWatermark = c.WriteQueueCap + 1 },
		func(c *Config) { c.LowWatermark = -1 },
		func(c *Config) { c.MaxRefreshDebt = 0 },
		func(c *Config) { c.MaxRefreshDebt = 9 },
		// Unknown policies ran as the zero value; an unbounded queue is
		// walked on every scheduling pass.
		func(c *Config) { c.Mapping = -1 },
		func(c *Config) { c.Mapping = BitReversal + 1 },
		func(c *Config) { c.Scheduler = -1 },
		func(c *Config) { c.Scheduler = FCFS + 1 },
		func(c *Config) { c.RowPolicy = -1 },
		func(c *Config) { c.RowPolicy = ClosePage + 1 },
		func(c *Config) { c.ReadQueueCap = maxQueueCap + 1 },
		func(c *Config) { c.WriteQueueCap, c.HighWatermark = 1<<40, 1<<40 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestPolicyStrings: every valid policy prints its name, and a value
// outside the enum prints as its type and number, never as a valid name.
func TestPolicyStrings(t *testing.T) {
	for _, tc := range []struct {
		got  fmt.Stringer
		want string
	}{
		{PageInterleave, "page-interleave"},
		{PermutationInterleave, "permutation-interleave"},
		{BitReversal, "bit-reversal"},
		{MappingPolicy(9), "MappingPolicy(9)"},
		{FRFCFS, "FR-FCFS"},
		{FCFS, "FCFS"},
		{SchedulerPolicy(-1), "SchedulerPolicy(-1)"},
		{SchedulerPolicy(2), "SchedulerPolicy(2)"},
		{OpenPage, "open-page"},
		{ClosePage, "close-page"},
		{RowPolicy(-1), "RowPolicy(-1)"},
		{RowPolicy(2), "RowPolicy(2)"},
	} {
		if s := tc.got.String(); s != tc.want {
			t.Errorf("%#v prints %q, want %q", tc.got, s, tc.want)
		}
	}
}

// TestMapperBijection: Decode/Encode are inverses over the whole space for
// every policy.
func TestMapperBijection(t *testing.T) {
	for _, pol := range []MappingPolicy{PageInterleave, PermutationInterleave, BitReversal} {
		m, err := NewAddressMapper(core.SingleCoreGeometry(), pol)
		if err != nil {
			t.Fatal(err)
		}
		err = quick.Check(func(raw int64) bool {
			line := (raw%m.TotalLines() + m.TotalLines()) % m.TotalLines()
			return encode(m, m.Decode(line)) == line
		}, nil)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

// TestPageInterleaveRowLocality: consecutive lines of an 8 KB page share a
// DRAM row (the property the paper's open-page baseline relies on).
func TestPageInterleaveRowLocality(t *testing.T) {
	m, err := NewAddressMapper(core.SingleCoreGeometry(), PageInterleave)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Decode(0)
	for line := int64(1); line < 128; line++ {
		a := m.Decode(line)
		if a.Row != first.Row || a.Bank != first.Bank || a.Rank != first.Rank || a.Channel != first.Channel {
			t.Fatalf("line %d left the row: %v vs %v", line, a, first)
		}
		if a.Column != int(line) {
			t.Fatalf("line %d column = %d", line, a.Column)
		}
	}
	// The 129th line lands in another bank (bank bits above column).
	if m.Decode(128).Bank == first.Bank && m.Decode(128).Rank == first.Rank {
		t.Fatal("next page must change bank")
	}
}

func TestDecodeNegativeAndOverflowLines(t *testing.T) {
	m, err := NewAddressMapper(core.SingleCoreGeometry(), PageInterleave)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Decode(-5)
	if a.Row < 0 || a.Column < 0 {
		t.Fatal("negative lines must wrap, not explode")
	}
	b := m.Decode(m.TotalLines() + 3)
	if b != m.Decode(3) {
		t.Fatal("lines beyond the capacity must wrap")
	}
}

func TestEnqueueReadAndComplete(t *testing.T) {
	c := newCtrl(t, mcr.Off(), nil)
	id, ok := c.EnqueueRead(0, 0, 0)
	if !ok {
		t.Fatal("enqueue must succeed")
	}
	deadline := int64(200)
	var comps []Completion
	for now := int64(0); now < deadline && len(comps) == 0; now++ {
		c.Tick(now)
		comps = append(comps, c.DrainCompletions()...)
	}
	if len(comps) != 1 || comps[0].ID != id {
		t.Fatalf("expected one completion for id %d, got %v", id, comps)
	}
	// ACT(0) -> RD(tRCD) -> data at tRCD+CL+BL = 11+11+4 = 26.
	if comps[0].DoneAt != 26 {
		t.Fatalf("read completed at %d, want 26 (cold bank)", comps[0].DoneAt)
	}
	st := c.Stats()
	if st.ReadsDone != 1 || st.RowMisses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	c := newCtrl(t, mcr.Off(), nil)
	now := int64(0)
	done := func(line int64) int64 {
		id, ok := c.EnqueueRead(line, 0, now)
		if !ok {
			t.Fatal("enqueue failed")
		}
		for limit := now + 1000; now < limit; now++ {
			c.Tick(now)
			for _, comp := range c.DrainCompletions() {
				if comp.ID == id {
					now = comp.DoneAt + 50 // let the bus and tCCD drain
					return comp.DoneAt - comp.ArriveAt
				}
			}
		}
		t.Fatal("read never completed")
		return 0
	}
	cold := done(0)
	hot := done(1) // same row, already open
	if hot >= cold {
		t.Fatalf("row hit (%d) must beat row miss (%d)", hot, cold)
	}
}

func TestReadQueueCapacity(t *testing.T) {
	c := newCtrl(t, mcr.Off(), nil)
	// Fill one channel's read queue with distinct rows (no forwarding).
	n := 0
	for i := 0; ; i++ {
		if _, ok := c.EnqueueRead(int64(i)*128*16, 0, 0); !ok {
			break
		}
		n++
		if n > 100 {
			t.Fatal("queue never filled")
		}
	}
	if n != DefaultConfig().ReadQueueCap {
		t.Fatalf("accepted %d reads, want %d", n, DefaultConfig().ReadQueueCap)
	}
	if _, ok := c.EnqueueRead(9999*128, 0, 0); ok {
		t.Fatal("full queue must refuse")
	}
}

func TestWriteForwardingServesReadInstantly(t *testing.T) {
	c := newCtrl(t, mcr.Off(), nil)
	if !c.EnqueueWrite(500, 0, 0) {
		t.Fatal("write enqueue failed")
	}
	_, ok := c.EnqueueRead(500, 0, 1)
	if !ok {
		t.Fatal("read enqueue failed")
	}
	comps := c.DrainCompletions()
	if len(comps) != 1 || comps[0].DoneAt != 2 {
		t.Fatalf("forwarded read must complete immediately, got %v", comps)
	}
}

func TestWriteDrainWatermarks(t *testing.T) {
	c := newCtrl(t, mcr.Off(), nil)
	// Saturate the write queue past the high watermark.
	for i := 0; i < DefaultConfig().HighWatermark+2; i++ {
		if !c.EnqueueWrite(int64(i)*128*16, 0, 0) {
			t.Fatal("write enqueue failed")
		}
	}
	// Also park one read; during drain mode writes go first, but the
	// controller must still finish everything.
	c.EnqueueRead(99999*128, 0, 0)
	var now int64
	for ; now < 50_000; now++ {
		c.Tick(now)
		c.DrainCompletions()
		r, w := c.Pending()
		if r == 0 && w == 0 {
			break
		}
	}
	r, w := c.Pending()
	if r != 0 || w != 0 {
		t.Fatalf("queues not drained: %d reads %d writes", r, w)
	}
	if got := c.Stats().WritesDone; got != int64(DefaultConfig().HighWatermark+2) {
		t.Fatalf("writes done = %d", got)
	}
}

// TestRefreshHappensAtTREFI: over a long idle stretch the controller issues
// the JEDEC refresh rate.
func TestRefreshHappensAtTREFI(t *testing.T) {
	c := newCtrl(t, mcr.Off(), nil)
	tREFI := int64(c.dev.Timings().Normal.TREFI)
	horizon := tREFI * 20
	for now := int64(0); now < horizon; now++ {
		c.Tick(now)
	}
	// Two ranks on the channel: about 2 REFs per tREFI (idle ranks refresh
	// opportunistically, so allow slack on the high side only).
	got := c.dev.Stats().Refreshes
	want := 2 * 20
	if got < int64(want-2) || got > int64(want+4) {
		t.Fatalf("refreshes = %d, want ~%d", got, want)
	}
}

// TestForcedRefreshUnderLoad: even a bank hammered with row hits yields to
// refresh before the debt limit is breached.
func TestForcedRefreshUnderLoad(t *testing.T) {
	c := newCtrl(t, mcr.Off(), nil)
	tREFI := int64(c.dev.Timings().Normal.TREFI)
	horizon := tREFI * 12
	line := int64(0)
	for now := int64(0); now < horizon; now++ {
		// Keep the read queue saturated with row-hit traffic to rank 0.
		for {
			if _, ok := c.EnqueueRead(line%(128*4), 0, now); !ok {
				break
			}
			line++
		}
		c.Tick(now)
		c.DrainCompletions()
	}
	// Each rank may postpone at most MaxRefreshDebt intervals, so over 12
	// tREFI each rank must have completed at least 12-8 = 4 refreshes.
	if got := c.dev.Stats().Refreshes; got < 8 {
		t.Fatalf("refreshes under load = %d, want >= 8 (debt limit 8, 2 ranks)", got)
	}
}

func TestFCFSStillCompletes(t *testing.T) {
	c := newCtrl(t, mcr.Off(), func(cfg *Config) { cfg.Scheduler = FCFS })
	for i := 0; i < 8; i++ {
		if _, ok := c.EnqueueRead(int64(i)*128*16, 0, 0); !ok {
			t.Fatal("enqueue failed")
		}
	}
	var done int
	for now := int64(0); now < 5000 && done < 8; now++ {
		c.Tick(now)
		done += len(c.DrainCompletions())
	}
	if done != 8 {
		t.Fatalf("FCFS completed %d of 8 reads", done)
	}
}

func TestClosePagePrechargesIdleRows(t *testing.T) {
	c := newCtrl(t, mcr.Off(), func(cfg *Config) { cfg.RowPolicy = ClosePage })
	c.EnqueueRead(0, 0, 0)
	for now := int64(0); now < 400; now++ {
		c.Tick(now)
		c.DrainCompletions()
	}
	a := c.mapper.Decode(0)
	if c.dev.OpenRow(a) >= 0 {
		t.Fatal("close-page must have closed the bank")
	}
}

func TestMCRReadsCounted(t *testing.T) {
	c := newCtrl(t, mcrtest.Mode(4, 4, 1), nil)
	c.EnqueueRead(0, 0, 0)
	for now := int64(0); now < 400; now++ {
		c.Tick(now)
		c.DrainCompletions()
	}
	if c.Stats().MCRReads != 1 {
		t.Fatalf("MCR reads = %d, want 1", c.Stats().MCRReads)
	}
}

// TestFRFCFSPrefersRowHit: with a hit and an older miss both pending, the
// hit's column command issues first once ready.
func TestFRFCFSPrefersRowHit(t *testing.T) {
	c := newCtrl(t, mcr.Off(), nil)
	// Open row 0 of bank 0 by completing one read.
	c.EnqueueRead(0, 0, 0)
	var ready bool
	var now int64
	for ; now < 400 && !ready; now++ {
		c.Tick(now)
		if len(c.DrainCompletions()) > 0 {
			ready = true
		}
	}
	// Older request: row conflict on the same bank. Newer: hit on row 0.
	conflictLine := int64(128 * 16 * 100) // same bank (bank bits repeat), different row
	hitLine := int64(1)
	ca, ha := c.mapper.Decode(conflictLine), c.mapper.Decode(hitLine)
	if ca.Bank != ha.Bank || ca.Rank != ha.Rank || ca.Row == ha.Row {
		t.Fatalf("test addresses wrong: %v vs %v", ca, ha)
	}
	idConflict, _ := c.EnqueueRead(conflictLine, 0, now)
	idHit, _ := c.EnqueueRead(hitLine, 0, now)
	var first int64 = -1
	for ; now < 2000 && first < 0; now++ {
		c.Tick(now)
		for _, comp := range c.DrainCompletions() {
			if first < 0 {
				first = comp.ID
			}
		}
	}
	if first != idHit {
		t.Fatalf("first completion = %d, want the row hit %d (conflict was %d)", first, idHit, idConflict)
	}
}

// TestBitReversalSpreadsStrides: a power-of-two row stride that would walk
// adjacent rows under page interleaving lands on rows spread across the
// whole bank under bit reversal (the property of the paper's citation
// [26]).
func TestBitReversalSpreadsStrides(t *testing.T) {
	g := core.SingleCoreGeometry()
	plain, err := NewAddressMapper(g, PageInterleave)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := NewAddressMapper(g, BitReversal)
	if err != nil {
		t.Fatal(err)
	}
	// Lines strided by one full row within the same bank: rows 0,1,2,...
	// under page interleave.
	stride := int64(g.Columns * g.Channels * g.Banks * g.Ranks)
	var plainSpan, revSpan int
	prevP, prevR := -1, -1
	for i := int64(0); i < 8; i++ {
		p := plain.Decode(i * stride)
		r := rev.Decode(i * stride)
		if prevP >= 0 {
			if d := p.Row - prevP; d == 1 || d == -1 {
				plainSpan++
			}
			if d := r.Row - prevR; d > 1024 || d < -1024 {
				revSpan++
			}
		}
		prevP, prevR = p.Row, r.Row
	}
	if plainSpan != 7 {
		t.Fatalf("page interleave must walk adjacent rows, got %d/7", plainSpan)
	}
	if revSpan != 7 {
		t.Fatalf("bit reversal must scatter the walk, got %d/7 far jumps", revSpan)
	}
}
