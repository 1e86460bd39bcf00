package controller

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/obs"
)

// refController schedules with the FR-FCFS pass as it stood before the
// one-walk rewrite: two scans of the queue per pass, a device probe by
// Address for every request, retirement by searching the queue. The
// methods below are that code verbatim (receiver and queue arguments
// aside); everything they do not define — refresh management, the drain
// flag's transition function, due, charge, postColumn — is the
// controller's own, which the rewrite did not touch. The bank-dedup
// stamps of its second scan are its own, and so is updateDrainMode's
// wake rule, restated from its definition rather than copied.
// TestOneWalkMatchesTwoScans drives it against Tick.
type refController struct {
	*Controller
	touched    []int64
	touchedGen int64
}

func (c *refController) tick(now int64) {
	if c.pendingMode != nil {
		c.tickModeChange(now)
		return
	}
	c.walkedAt, c.wake = now, math.MaxInt64
	c.blocked = c.blocked[:0]
	for ch := 0; ch < c.geom.Channels; ch++ {
		c.tickChannel(ch, now)
	}
}

// updateDrainMode wakes at now+1 only in the off-phase of the drain
// toggle: the flag just turned false while the read queue is empty and
// 0 < writes ≤ LowWatermark, so the next tick runs a write pass this one
// did not. The on-phase walk stands for the off-phase ticks after it.
func (c *refController) updateDrainMode(ch int, now int64) {
	nr, nw := len(c.readQ[ch]), len(c.writeQ[ch])
	c.drain[ch] = c.drainNext(c.drain[ch], nr, nw)
	if !c.drain[ch] && nr == 0 && 0 < nw && nw <= c.cfg.LowWatermark {
		c.wake = now + 1
	}
}

func (c *refController) tickChannel(ch int, now int64) {
	c.updateRefreshDebt(ch, now)
	c.updateDrainMode(ch, now)
	if c.serviceForcedRefresh(ch, now) || c.scheduleRequests(ch, now) ||
		c.serviceOpportunisticRefresh(ch, now) || c.scheduleHousekeeping(ch, now) {
		c.wake = now + 1
	}
}

func (c *refController) scheduleRequests(ch int, now int64) bool {
	primary, secondary := &c.readQ[ch], &c.writeQ[ch]
	if c.drain[ch] {
		primary, secondary = secondary, primary
	}
	if c.schedulePass(ch, *primary, now) {
		return true
	}
	if !c.drain[ch] || len(*secondary) == 0 {
		return false
	}
	return c.schedulePass(ch, *secondary, now)
}

func (c *refController) schedulePass(ch int, q []request, now int64) bool {
	if len(q) == 0 {
		return false
	}
	if c.cfg.Scheduler == FCFS {
		return c.advanceRequest(ch, &q[0], now)
	}
	// First-ready: oldest request whose column access is legal this cycle.
	for i := range q {
		req := &q[i]
		if c.dev.IsRowHitAt(req.Bank, req.Addr.Row) && c.tryColumn(ch, req, now) {
			return true
		}
	}
	// Then FCFS: walk requests oldest-first and issue the first legal
	// preparation command (PRE for a conflict, ACT for a closed bank),
	// skipping banks already claimed by an earlier request this pass.
	c.touchedGen++
	for i := range q {
		req := &q[i]
		if c.touched[req.Bank] == c.touchedGen {
			continue
		}
		c.touched[req.Bank] = c.touchedGen
		if c.prepareBank(req, now) {
			return true
		}
	}
	return false
}

func (c *refController) advanceRequest(ch int, req *request, now int64) bool {
	if c.dev.IsRowHitAt(req.Bank, req.Addr.Row) {
		return c.tryColumn(ch, req, now)
	}
	return c.prepareBank(req, now)
}

func (c *refController) tryColumn(ch int, req *request, now int64) bool {
	if req.Kind == core.OpRead {
		if t, ok := c.dev.EarliestRead(req.Addr, now); !ok || !c.due(t, now) {
			return false
		}
		c.stats.RowHits++
		c.obs.RowHit()
		done := c.dev.Read(req.Addr, now)
		// Copy before removal: req points into the queue, and removal
		// shifts later requests into its slot.
		r := *req
		c.removeRequest(&c.readQ[ch], r.ID)
		c.completions = append(c.completions, Completion{ID: r.ID, CoreID: int(r.CoreID), DoneAt: done, ArriveAt: r.ArriveAt})
		c.stats.ReadsDone++
		c.stats.TotalReadLatency += done - r.ArriveAt
		c.obs.ObserveRead(obs.AttributeRead(r.ArriveAt, r.PreAt, r.ActAt, now, done, r.RasBlocked, r.RefBlocked))
		if _, inMCR := c.dev.RowParams(r.Addr.Row); inMCR {
			c.stats.MCRReads++
		}
		c.postColumn(&r, now)
		return true
	}
	if t, ok := c.dev.EarliestWrite(req.Addr, now); !ok || !c.due(t, now) {
		return false
	}
	c.stats.RowHits++
	c.obs.RowHit()
	c.dev.Write(req.Addr, now)
	r := *req
	c.removeWrite(&c.writeQ[ch], r)
	c.stats.WritesDone++
	c.postColumn(&r, now)
	return true
}

func (c *refController) prepareBank(req *request, now int64) bool {
	switch {
	case c.dev.OpenRowAt(req.Bank) < 0:
		if t, ok := c.dev.EarliestActivate(req.Addr, now); ok && c.due(t, now) {
			c.dev.Activate(req.Addr, now)
			c.stats.RowMisses++
			c.obs.RowMiss()
			req.ActAt = now
			return true
		}
		if req.PreAt < 0 && req.ActAt < 0 && c.refreshInFlight(req, now) {
			c.charge(&req.RefBlocked)
		}
	case !c.dev.IsRowHitAt(req.Bank, req.Addr.Row):
		if t, ok := c.dev.EarliestPrecharge(req.Addr, now); ok && c.due(t, now) {
			c.dev.Precharge(req.Addr, now)
			c.stats.RowConflicts++
			c.obs.RowConflict()
			req.PreAt = now
			return true
		}
		if req.PreAt < 0 {
			if c.refreshInFlight(req, now) {
				c.charge(&req.RefBlocked)
			} else {
				c.charge(&req.RasBlocked)
			}
		}
	}
	return false
}

// removeRequest deletes a read by id, preserving order.
func (c *refController) removeRequest(q *[]request, id int64) {
	for i := range *q {
		if (*q)[i].ID == id {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// removeWrite deletes the first write matching the request's address and
// arrival, preserving order.
func (c *refController) removeWrite(q *[]request, req request) {
	for i := range *q {
		if (*q)[i].Addr == req.Addr && (*q)[i].ArriveAt == req.ArriveAt {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// chargeSite names one stall counter a walk charged by where it lives,
// so that two controllers' blocked lists (pointers into their own queues)
// can be compared.
type chargeSite struct {
	write, ras bool
	ch, pos    int
}

func chargedSites(t *testing.T, c *Controller) []chargeSite {
	t.Helper()
	var out []chargeSite
	for _, p := range c.blocked {
		found := false
		for ch := range c.readQ {
			for w, q := range [2][]request{c.readQ[ch], c.writeQ[ch]} {
				for i := range q {
					if p == &q[i].RasBlocked || p == &q[i].RefBlocked {
						out = append(out, chargeSite{write: w == 1, ras: p == &q[i].RasBlocked, ch: ch, pos: i})
						found = true
					}
				}
			}
		}
		if !found {
			t.Fatal("a charged counter belongs to no queued request")
		}
	}
	return out
}

// sameState is reflect.DeepEqual over what the two controllers and their
// devices would export to a checkpoint, spelled out field by field: the
// differential below compares after every cycle, and reflection over two
// full queues and sixteen banks dominates its run time otherwise. The
// field counts pin the spelling to the State types.
func sameState(t *testing.T, a, b *Controller) bool {
	t.Helper()
	da, db := a.dev.ExportState(), b.dev.ExportState()
	if n, m := reflect.TypeOf(State{}).NumField(), reflect.TypeOf(da).NumField(); n != 9 || m != 7 {
		t.Fatalf("controller.State has %d fields and dram.State %d, sameState compares 9 and 7", n, m)
	}
	return slices.EqualFunc(a.readQ, b.readQ, slices.Equal[[]request]) &&
		slices.EqualFunc(a.writeQ, b.writeQ, slices.Equal[[]request]) &&
		slices.Equal(a.drain, b.drain) && slices.Equal(a.refresh, b.refresh) &&
		a.nextID == b.nextID && slices.Equal(a.completions, b.completions) &&
		a.stats == b.stats && a.tREFI == b.tREFI && reflect.DeepEqual(a.pendingMode, b.pendingMode) &&
		slices.Equal(da.Banks, db.Banks) && slices.Equal(da.Ranks, db.Ranks) &&
		slices.Equal(da.BusBusyUntil, db.BusBusyUntil) && slices.Equal(da.BusOwner, db.BusOwner) &&
		slices.Equal(da.NextCol, db.NextCol) && da.Stats == db.Stats && reflect.DeepEqual(da.Mech, db.Mech)
}

// TestOneWalkMatchesTwoScans is the differential for the scheduling walk:
// the same seeded traffic goes to a controller ticked by the pre-rewrite
// two-scan pass and to one ticked by Tick, every cycle, and after every
// cycle the two must agree on everything — completions, queues with their
// stall markers, drain flags, refresh obligations, statistics, the device
// down to every timing gate, the wake time and which counters the walk
// charged. The traffic has what the walk's shortcuts are about: several
// requests hitting one open row, hits queued behind a conflicting older
// request of the same bank, sibling rows of one aligned 4-row block (one
// gang under 4x, conflicts otherwise) and repeated writes to one address.
// The variants are TestWakeIsConservative's, none of which the benchmark
// digests cover, plus a two-channel geometry for the bank -> rank ->
// channel shifts.
func TestOneWalkMatchesTwoScans(t *testing.T) {
	twoChannels := func(c *dram.Config) { c.Geom.Channels, c.Geom.Banks = 2, 4 }
	variants := []struct {
		name string
		mode mcr.Mode
		gap  int
		mut  func(*Config)
		dev  func(*dram.Config)
	}{
		{"baseline", mcr.Off(), 3, nil, nil},
		{"mcr-4x", mcrtest.Mode(4, 4, 1), 3, nil, nil},
		{"refresh-skipping-2of4x", mcrtest.Mode(4, 2, 1), 3, nil, nil},
		{"fcfs", mcr.Off(), 3, func(c *Config) { c.Scheduler = FCFS }, nil},
		{"close-page", mcrtest.Mode(4, 4, 1), 3, func(c *Config) { c.RowPolicy = ClosePage }, nil},
		{"refresh-debt-1", mcrtest.Mode(4, 4, 1), 3, func(c *Config) { c.MaxRefreshDebt = 1 }, nil},
		{"two-channels-2x-half", mcrtest.Mode(2, 2, 0.5), 2, nil, twoChannels},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			build := func() *Controller {
				dcfg := dram.DefaultConfig(v.mode)
				if v.dev != nil {
					v.dev(&dcfg)
				}
				dev, err := dram.New(dcfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				if v.mut != nil {
					v.mut(&cfg)
				}
				c, err := New(cfg, dev, nil)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			cur := build()
			ref := &refController{Controller: build(), touched: make([]int64, len(cur.touched))}
			rng := rand.New(rand.NewSource(11))
			m := cur.mapper
			geom := cur.geom
			var recent [8]core.Address
			var charged int64
			const horizon = 100_000
			for now := int64(0); now < horizon; now++ {
				// Bursty arrivals for the first three quarters, then drain.
				if now < horizon*3/4 && rng.Intn(v.gap) == 0 {
					a := recent[rng.Intn(len(recent))]
					switch r := rng.Intn(10); {
					case r < 4:
						a = m.Decode(rng.Int63n(m.TotalLines()))
					case r < 7:
						a.Column = rng.Intn(geom.Columns)
					case r < 9:
						a.Row ^= 1 + rng.Intn(3)
					}
					recent[rng.Intn(len(recent))] = a
					line := encode(m, a)
					if rng.Intn(100) < 65 {
						idRef, okRef := ref.EnqueueRead(line, 0, now)
						idCur, okCur := cur.EnqueueRead(line, 0, now)
						if idRef != idCur || okRef != okCur {
							t.Fatalf("cycle %d: read admitted as (%d, %v) and (%d, %v)", now, idRef, okRef, idCur, okCur)
						}
					} else if ref.EnqueueWrite(line, 0, now) != cur.EnqueueWrite(line, 0, now) {
						t.Fatalf("cycle %d: write admitted by one controller only", now)
					}
				}
				ref.tick(now)
				cur.Tick(now)
				if !slices.Equal(ref.DrainCompletions(), cur.DrainCompletions()) {
					t.Fatalf("cycle %d: the two controllers completed different reads", now)
				}
				if ref.wake != cur.wake || ref.walkedAt != cur.walkedAt {
					t.Fatalf("cycle %d: two scans wake at %d, one walk at %d", now, ref.wake, cur.wake)
				}
				if r, c := chargedSites(t, ref.Controller), chargedSites(t, cur); !slices.Equal(r, c) {
					t.Fatalf("cycle %d: two scans charged %+v, one walk %+v", now, r, c)
				}
				if !sameState(t, ref.Controller, cur) {
					t.Fatalf("cycle %d: state diverged:\ntwo scans %+v\n          %+v\none walk  %+v\n          %+v",
						now, ref.ExportState(), ref.dev.ExportState(), cur.ExportState(), cur.dev.ExportState())
				}
				charged += int64(len(cur.blocked))
			}
			if r, w := cur.Pending(); r != 0 || w != 0 {
				t.Fatalf("queues wedged: %d reads, %d writes pending", r, w)
			}
			st := cur.Stats()
			if charged == 0 || st.RowHits < 1000 || st.RowConflicts < 1000 || st.WritesDone < 1000 {
				t.Fatalf("vacuous: %d charges, %+v", charged, st)
			}
			t.Logf("%d reads, %d writes, %d row hits, %d conflicts, %d stall charges", st.ReadsDone, st.WritesDone, st.RowHits, st.RowConflicts, charged)
		})
	}
}
