package cpu

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/trace"
)

// checkRing recomputes what the ring cursors claim from the ring itself,
// by modulo rather than the core's compare-and-wrap: the occupied window
// is made of non-empty entries that add up to the occupancy, and the
// reads still waiting in it are as many as the core counts.
func checkRing(t testing.TB, c *Core, now int64) {
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
		}
	}
	if occupancy != c.occupancy || waiting != c.waiting {
		t.Fatalf("cycle %d: window holds %d instructions and %d waiting reads, the core counts %d and %d",
			now, occupancy, waiting, c.occupancy, c.waiting)
	}
}

// sameState is reflect.DeepEqual on two exported states with the ring,
// nearly all of their bytes, compared as the slice of comparable entries
// it is: the randomised differential asks a quarter of a million times.
func sameState(a, b State) bool {
	if !slices.Equal(a.ROB, b.ROB) {
		return false
	}
	a.ROB, b.ROB = nil, nil
	return reflect.DeepEqual(a, b)
}

// spanDraw is one configuration of the FastForward differential: a core
// shape, a trace and a read latency in memory cycles as a function of the
// read's id (so completions can overtake one another).
type spanDraw struct {
	cfg      Config
	workload string
	insts    int64
	seed     int64
	lat      func(id int64) int64
}

// spanCounts says what a differential run exercised.
type spanCounts struct {
	spans     int // FastForward calls checked against stepping
	withReads int // ... of which with reads in flight
	long      int // ... of which longer than 16 cycles
}

func (a *spanCounts) add(b spanCounts) {
	a.spans += b.spans
	a.withReads += b.withReads
	a.long += b.long
}

// requireBoth fails a test whose spans never had reads in flight or were
// never long: the two things the closed form is for.
func (a spanCounts) requireBoth(t *testing.T) {
	t.Helper()
	if a.withReads == 0 || a.long == 0 {
		t.Errorf("of %d spans %d had reads in flight and %d were longer than 16 cycles; both must occur",
			a.spans, a.withReads, a.long)
	}
}

// runSpans drives two identical cores in lock step over the draw's whole
// trace: ref only ever by Cycle, ff by FastForward wherever SkipBound
// allows a span, pick choosing its length within the limit. Reads
// complete on both at memory-cycle boundaries and never inside a span —
// what the engine guarantees by capping its skips at the earliest pending
// completion. After every span the two exported states must be equal,
// neither side may have reached its memory system or its trace, and the
// stepped side may not have finished. A core that does not stand on the
// engine: a wrong closed form fails here without a simulator around it.
func runSpans(t testing.TB, d spanDraw, pick func(limit int64) int64) spanCounts {
	t.Helper()
	refMem, ffMem := newFakeMem(), newFakeMem()
	ref := newCoreCfg(t, d.cfg, d.workload, d.seed, d.insts, refMem)
	ff := newCoreCfg(t, d.cfg, d.workload, d.seed, d.insts, ffMem)
	var counts spanCounts
	var now int64
	for !ref.Done() {
		if now > 400*d.insts+1_000_000 {
			t.Fatalf("%+v: run did not terminate", d)
		}
		checkRing(t, ff, now)
		// Deliver what is due; the earliest read still out bounds the span.
		horizon := int64(math.MaxInt64)
		for id, at := range refMem.inflight {
			due := (at + d.lat(id)) * 4
			if due <= now {
				ref.Complete(id)
				ff.Complete(id)
				delete(refMem.inflight, id)
				delete(ffMem.inflight, id)
			} else if due-now < horizon {
				horizon = due - now
			}
		}
		limit := min(ref.SkipBound(), horizon)
		if limit == 0 {
			ref.Cycle(now, now/4)
			ff.Cycle(now, now/4)
			now++
			continue
		}
		k := pick(limit)
		enqueued, calls := refMem.reads+refMem.writes, ref.gen.Calls()
		inFlight := len(refMem.inflight)
		for i := int64(0); i < k; i++ {
			ref.Cycle(now+i, (now+i)/4)
		}
		ff.FastForward(now, k)
		if refMem.reads+refMem.writes != enqueued || ref.gen.Calls() != calls || ref.Done() {
			t.Fatalf("%+v: %d cycles from %d, inside a bound of %d, reached the memory system, the trace or the end", d, k, now, limit)
		}
		if ffMem.reads+ffMem.writes != enqueued || ff.gen.Calls() != calls {
			t.Fatalf("%+v: FastForward(%d, %d) reached the memory system or the trace", d, now, k)
		}
		if got, want := ff.ExportState(), ref.ExportState(); !sameState(got, want) {
			t.Fatalf("%+v: FastForward(%d, %d) with %d reads in flight diverged from stepping\n got: %+v\nwant: %+v",
				d, now, k, inFlight, got, want)
		}
		counts.spans++
		if inFlight > 0 {
			counts.withReads++
		}
		if k > 16 {
			counts.long++
		}
		now += k
	}
	if got, want := ff.ExportState(), ref.ExportState(); !sameState(got, want) {
		t.Fatalf("%+v: final states differ\n got: %+v\nwant: %+v", d, got, want)
	}
	return counts
}

// TestFastForwardMatchesStepping is the differential pin for the
// event-driven engine's CPU replay on the paper's core: at every point of
// a driven run where SkipBound allows a span — reads in flight or not — a
// core fast-forwarded by the whole span must land in exactly the state
// its twin reaches by stepping it. The 96-entry runs put the ring's wrap
// where a power-of-two mask would not; the ring is checked every
// iteration.
func TestFastForwardMatchesStepping(t *testing.T) {
	var total spanCounts
	for _, tc := range []struct {
		label, workload string
		rob             int
	}{
		{"stream", "stream", 128}, {"comm1", "comm1", 128}, {"idle", "idle", 128},
		{"stream-rob96", "stream", 96}, {"comm1-rob96", "comm1", 96}, {"idle-rob96", "idle", 96},
	} {
		t.Run(tc.label, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ROBSize = tc.rob
			counts := runSpans(t,
				spanDraw{cfg: cfg, workload: tc.workload, insts: 30_000, seed: 1, lat: func(int64) int64 { return 50 }},
				func(limit int64) int64 { return min(limit, 4096) })
			if counts.spans == 0 {
				t.Error("no spans exercised; the differential check is vacuous")
			}
			total.add(counts)
		})
	}
	total.requireBoth(t)
}

// TestFastForwardFullRingOfDoneReads is the one shape the order of
// FastForward's no-waiting-read branch exists for and random traces
// almost never reach: every ring slot holds a completed read, so the tail
// cannot absorb the fetched run and the push needs a slot that only the
// first cycle's retirement frees. Pushing before any drain would
// overwrite the head.
func TestFastForwardFullRingOfDoneReads(t *testing.T) {
	build := func() *Core {
		c := newCoreROB(t, "stream", 10_000, newFakeMem(), 4)
		for i := range c.rob {
			c.rob[i] = robEntry{Count: 1, ReadID: int64(i), Done: true}
		}
		c.head, c.sz, c.occupancy = 1, 4, 4
		c.pending, c.hasPending, c.tailGap = Record{Gap: 9, Line: 5}, true, 9
		return c
	}
	ref, ff := build(), build()
	k := ref.SkipBound()
	if k < 2 {
		t.Fatalf("bound %d from a full window with a 9-instruction gap, want at least 2", k)
	}
	const now = 100
	for i := int64(0); i < k; i++ {
		ref.Cycle(now+i, (now+i)/4)
	}
	ff.FastForward(now, k)
	checkRing(t, ff, now+k)
	if got, want := ff.ExportState(), ref.ExportState(); !sameState(got, want) {
		t.Fatalf("FastForward(%d, %d) diverged from stepping\n got: %+v\nwant: %+v", now, k, got, want)
	}
}

// randomDraw maps raw values onto the ranges the randomised differential
// covers: ROB 4-200, fetch width 1-6, retire width 1-4 (so fetch narrower
// than retire occurs), pipeline depth 0-13, any single-core workload,
// read latency 1-maxLat memory cycles varying with the read's id.
func randomDraw(seed int64, rob, fw, rw, depth, workload, maxLat int) spanDraw {
	names := trace.SingleCoreNames()
	lat := int64(1 + maxLat%600)
	return spanDraw{
		cfg:      Config{ROBSize: 4 + rob%197, FetchWidth: 1 + fw%6, RetireWidth: 1 + rw%4, PipelineDepth: depth % 14},
		workload: names[workload%len(names)],
		insts:    6_000,
		seed:     seed,
		lat:      func(id int64) int64 { return 1 + (id*7919+seed&0xffff)%lat },
	}
}

// TestFastForwardRandomised is the closed form's differential over core
// shapes no benchmark runs: seeded draws of every Config field, all 16
// single-core workloads, read latencies from one memory cycle to 600, and
// span lengths drawn inside the bound rather than always the whole of it.
func TestFastForwardRandomised(t *testing.T) {
	const draws = 480
	rng := rand.New(rand.NewSource(21))
	var total spanCounts
	for i := 0; i < draws; i++ {
		d := randomDraw(rng.Int63(), rng.Intn(1<<16), rng.Intn(1<<16), rng.Intn(1<<16), rng.Intn(1<<16), i, rng.Intn(1<<16))
		total.add(runSpans(t, d, func(limit int64) int64 { return 1 + rng.Int63n(limit) }))
	}
	t.Logf("%d draws: %d spans, %d with reads in flight, %d longer than 16 cycles", draws, total.spans, total.withReads, total.long)
	total.requireBoth(t)
}

// FuzzFastForward is TestFastForwardRandomised's body with the draw in
// the fuzzer's hands.
func FuzzFastForward(f *testing.F) {
	f.Add(int64(1), uint8(124), uint8(3), uint8(1), uint8(10), uint8(0), uint16(49))
	f.Add(int64(7), uint8(0), uint8(1), uint8(3), uint8(0), uint8(5), uint16(0))
	f.Add(int64(3), uint8(92), uint8(5), uint8(2), uint8(13), uint8(12), uint16(599))
	f.Fuzz(func(t *testing.T, seed int64, rob, fw, rw, depth, workload uint8, maxLat uint16) {
		rng := rand.New(rand.NewSource(seed))
		d := randomDraw(seed, int(rob), int(fw), int(rw), int(depth), int(workload), int(maxLat))
		runSpans(t, d, func(limit int64) int64 { return 1 + rng.Int63n(limit) })
	})
}

// TestSkipBoundIsConservative pins both sides of the bound on a driven
// run, with completions arriving whenever they fall due. The safe side:
// an unbounded answer means the very next Cycle changes nothing, and a
// finite positive b means b cycles reach neither the memory system nor
// the trace nor the end — whether or not reads complete meanwhile. The
// tight side: from the full-window steady state (nothing waiting, ROB
// full, a memory operation pending) the window admits only what retire
// drains, and the operation must dispatch within b + ceil(FetchWidth /
// RetireWidth) cycles — a bound that assumed FetchWidth instructions a
// cycle there would be crossed in log2 halvings instead of once.
func TestSkipBoundIsConservative(t *testing.T) {
	for _, name := range []string{"stream", "idle"} {
		t.Run(name, func(t *testing.T) {
			const latency = 150 // memory cycles
			mem := newFakeMem()
			c := newCore(t, name, 40_000, mem)
			slack := int64((c.cfg.FetchWidth + c.cfg.RetireWidth - 1) / c.cfg.RetireWidth)
			var now, quietUntil, dispatchBy int64
			dispatchBy = -1
			sawUnbounded, sawFinite, sawTight := false, false, false
			for !c.Done() && now < 10_000_000 {
				for id, at := range mem.inflight {
					if (at+latency)*4 <= now {
						c.Complete(id)
						delete(mem.inflight, id)
					}
				}
				b := c.SkipBound()
				enqueued, calls := mem.reads+mem.writes, c.gen.Calls()
				switch {
				case b == math.MaxInt64:
					before := c.ExportState()
					c.Cycle(now, now/4)
					if after := c.ExportState(); !sameState(before, after) {
						t.Fatalf("cycle %d: state changed under an unbounded answer", now)
					}
					sawUnbounded = true
				default:
					if b > 0 {
						sawFinite = true
						quietUntil = max(quietUntil, now+b)
						if dispatchBy < 0 && c.waiting == 0 && c.occupancy == c.cfg.ROBSize && c.hasPending && c.pending.Line >= 0 {
							dispatchBy = now + b + slack
						}
					}
					c.Cycle(now, now/4)
				}
				moved := mem.reads+mem.writes != enqueued
				if now < quietUntil && (moved || c.gen.Calls() != calls || c.Done()) {
					t.Fatalf("cycle %d: inside a bound that holds until %d the core reached the memory system, the trace or the end", now, quietUntil)
				}
				if dispatchBy >= 0 {
					switch {
					case moved:
						sawTight = true
						dispatchBy = -1
					case now >= dispatchBy:
						t.Fatalf("cycle %d: the pending operation had to dispatch by cycle %d; the bound is loose", now, dispatchBy)
					}
				}
				now++
			}
			if !c.Done() {
				t.Fatal("run did not terminate")
			}
			if !sawFinite || !sawTight {
				t.Errorf("finite bound seen: %v, full-window steady state seen: %v; both must occur", sawFinite, sawTight)
			}
			if name == "stream" && !sawUnbounded {
				t.Error("no parked window observed on a memory-bound workload")
			}
		})
	}
}
