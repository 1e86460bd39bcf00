package cpu

import (
	"fmt"
	"reflect"
	"testing"
)

// cloneCore builds a fresh core of the same workload and restores src's
// exported state onto it (replaying the trace generator), so both sides
// of a differential check start bit-identical.
func cloneCore(t *testing.T, name string, insts int64, src *Core) *Core {
	t.Helper()
	c := newCoreROB(t, name, insts, newFakeMem(), src.cfg.ROBSize)
	if err := c.ImportState(src.ExportState()); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkRing recomputes what the ring cursors claim from the ring itself,
// by modulo rather than the core's compare-and-wrap: the occupied window
// is made of non-empty entries that add up to the occupancy, and every
// read in flight is where the index says it is.
func checkRing(t *testing.T, c *Core, now int64) {
	t.Helper()
	n := len(c.rob)
	if c.head < 0 || c.head >= n || c.sz < 0 || c.sz > n {
		t.Fatalf("cycle %d: window (head %d, size %d) outside the %d-entry ring", now, c.head, c.sz, n)
	}
	occupancy, waiting := 0, 0
	for i := 0; i < c.sz; i++ {
		idx := (c.head + i) % n
		e := c.rob[idx]
		if e.Count < 1 {
			t.Fatalf("cycle %d: occupied entry %d holds %d instructions", now, idx, e.Count)
		}
		occupancy += e.Count
		if e.ReadID >= 0 && !e.Done {
			waiting++
			if at, ok := c.readsInFlight[e.ReadID]; !ok || at != idx {
				t.Fatalf("cycle %d: read %d waits in entry %d, the index says %d (%v)", now, e.ReadID, idx, at, ok)
			}
		}
	}
	if occupancy != c.occupancy || waiting != len(c.readsInFlight) {
		t.Fatalf("cycle %d: window holds %d instructions and %d waiting reads, the core counts %d and %d",
			now, occupancy, waiting, c.occupancy, len(c.readsInFlight))
	}
}

// TestFastForwardMatchesStepping is the differential pin for the
// event-driven engine's CPU replay: at every quiescent point of a driven
// run (no reads in flight, SkipBound > 0), a clone fast-forwarded by the
// bound must land in exactly the state the original reaches by stepping
// the same span cycle by cycle. The 96-entry runs put the ring's wrap
// where a power-of-two mask would not; the ring is checked every cycle.
func TestFastForwardMatchesStepping(t *testing.T) {
	const insts = 30_000
	const readLatency = 200 // CPU cycles from issue to completion
	for _, tc := range []struct {
		workload string
		rob      int
	}{{"stream", 128}, {"comm1", 128}, {"idle", 128}, {"stream", 96}, {"comm1", 96}, {"idle", 96}} {
		name, label := tc.workload, tc.workload
		if tc.rob != 128 {
			label = fmt.Sprintf("%s-rob%d", name, tc.rob)
		}
		t.Run(label, func(t *testing.T) {
			mem := newFakeMem()
			c := newCoreROB(t, name, insts, mem, tc.rob)
			var now int64
			checks := 0
			for !c.Done() {
				if now > 100_000_000 {
					t.Fatal("run did not terminate")
				}
				checkRing(t, c, now)
				if len(c.readsInFlight) == 0 {
					if b := c.SkipBound(); b > 0 {
						k := b
						if k > 4096 {
							k = 4096
						}
						clone := cloneCore(t, name, insts, c)
						clone.FastForward(now, k)
						for i := int64(0); i < k; i++ {
							c.Cycle(now+i, (now+i)/4)
						}
						now += k
						got, want := clone.ExportState(), c.ExportState()
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("FastForward(%d) at cycle %d diverged\n got: %+v\nwant: %+v",
								k, now-k, got, want)
						}
						checks++
						continue
					}
				}
				c.Cycle(now, now/4)
				now++
				for id, at := range mem.inflight {
					if now-at >= readLatency {
						c.Complete(id)
						delete(mem.inflight, id)
					}
				}
			}
			if checks == 0 {
				t.Error("no quiescent spans exercised; the differential check is vacuous")
			}
		})
	}
}

// TestSkipBoundZeroWhileProgressing pins the bound's safe side: whenever
// SkipBound answers 0 the very next cycle may change state, and a
// saturated core (reads in flight, stalled head) reports an unbounded
// quiescence that only an external completion ends.
func TestSkipBoundZeroWhileProgressing(t *testing.T) {
	mem := newFakeMem()
	c := newCore(t, "stream", 10_000, mem)
	var now int64
	sawUnbounded := false
	for !c.Done() && now < 10_000_000 {
		b := c.SkipBound()
		if len(c.readsInFlight) > 0 && b > 0 {
			// A positive bound with reads in flight must mean a pure
			// stall: stepping without delivering completions cannot
			// change anything.
			before := c.ExportState()
			c.Cycle(now, now/4)
			if after := c.ExportState(); !reflect.DeepEqual(before, after) {
				t.Fatalf("cycle %d: state changed during a declared pure stall", now)
			}
			sawUnbounded = true
			now++
			for id, at := range mem.inflight {
				if now-at >= 150 {
					c.Complete(id)
					delete(mem.inflight, id)
				}
			}
			continue
		}
		c.Cycle(now, now/4)
		now++
		for id, at := range mem.inflight {
			if now-at >= 150 {
				c.Complete(id)
				delete(mem.inflight, id)
			}
		}
	}
	if !sawUnbounded {
		t.Error("no pure-stall window observed on a memory-bound workload")
	}
}
