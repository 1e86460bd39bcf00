package controller

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// frozenState is what a Tick inside an approved span must leave alone:
// nothing issues, no refresh obligation moves, and no drain flag flips
// but a toggling one's, which alternates every cycle (see after).
type frozenState struct {
	dev     dram.Stats
	ctrl    Stats
	drain   []bool
	refresh []rankRefresh
}

func freeze(c *Controller) frozenState {
	return frozenState{dev: c.dev.Stats(), ctrl: c.stats, drain: slices.Clone(c.drain), refresh: slices.Clone(c.refresh)}
}

// after is the state k cycles into a span that starts from f: f with
// the toggling channels' drain flags flipped once per cycle.
func (f frozenState) after(k int64, toggling []bool) frozenState {
	g := f
	g.drain = slices.Clone(f.drain)
	for ch, tg := range toggling {
		g.drain[ch] = f.drain[ch] != (tg && k%2 == 1)
	}
	return g
}

// togglingChannels marks the channels whose drain flag alternates while
// their queues stand still.
func togglingChannels(c *Controller) []bool {
	out := make([]bool, len(c.drain))
	for ch := range c.drain {
		out[ch] = c.toggles(ch)
	}
	return out
}

func (f frozenState) equal(g frozenState) bool {
	return f.dev == g.dev && f.ctrl == g.ctrl && slices.Equal(f.drain, g.drain) && slices.Equal(f.refresh, g.refresh)
}

// TestWakeIsConservative checks the memo against the walk it came from,
// on two controllers fed the same seeded random traffic. ref steps every
// cycle. memo asks NextEventAt after each Tick; whenever that approves a
// span, no request arrives for a random prefix of it, ref steps the
// prefix — every one of those Ticks must issue nothing, leave refresh
// obligations alone and flip no drain flag but a toggling channel's, which
// must alternate — and memo replays it in closed form, after which the two
// controllers and their devices must be in the same state, stall counters
// of every queued request and drain flags included. Spans over a toggling
// channel must occur with both an odd and an even length.
func TestWakeIsConservative(t *testing.T) {
	variants := []struct {
		name string
		mode mcr.Mode
		// One arrival every gap cycles on average. At 3 the queues stay
		// full.
		gap int
		mut func(*Config)
	}{
		{"baseline", mcr.Off(), 3, nil},
		{"mcr-4x", mcrtest.Mode(4, 4, 1), 3, nil},
		{"refresh-skipping-2of4x", mcrtest.Mode(4, 2, 1), 3, nil},
		{"fcfs", mcr.Off(), 3, func(c *Config) { c.Scheduler = FCFS }},
		{"close-page", mcrtest.Mode(4, 4, 1), 3, func(c *Config) { c.RowPolicy = ClosePage }},
		{"refresh-debt-1", mcrtest.Mode(4, 4, 1), 3, func(c *Config) { c.MaxRefreshDebt = 1 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			ref, memo := newCtrl(t, v.mode, v.mut), newCtrl(t, v.mode, v.mut)
			rng := rand.New(rand.NewSource(11))
			lines := ref.mapper.TotalLines()
			var spans, charging, skipped int64
			var toggleSpans [2]int64 // by the span length's parity
			const horizon = 100_000
			for now := int64(0); now < horizon; now++ {
				// Bursty arrivals for the first three quarters, then drain.
				if now < horizon*3/4 && rng.Intn(v.gap) == 0 {
					line := rng.Int63n(lines)
					if rng.Intn(100) < 70 {
						ref.EnqueueRead(line, 0, now)
						memo.EnqueueRead(line, 0, now)
					} else {
						ref.EnqueueWrite(line, 0, now)
						memo.EnqueueWrite(line, 0, now)
					}
				}
				ref.Tick(now)
				memo.Tick(now)
				if !slices.Equal(ref.DrainCompletions(), memo.DrainCompletions()) {
					t.Fatalf("cycle %d: the two controllers completed different reads", now)
				}
				wake := memo.NextEventAt(now)
				if wake <= now {
					t.Fatalf("cycle %d: NextEventAt answered %d, not a later cycle", now, wake)
				}
				if wake == now+1 {
					continue
				}
				n := wake - now - 1
				if rng.Intn(2) == 0 {
					n = 1 + rng.Int63n(n) // a request cuts the span short
				}
				before, toggling := freeze(ref), togglingChannels(ref)
				for ch, tg := range toggling {
					if tg && !before.drain[ch] {
						t.Fatalf("cycle %d: span (%d, %d) approved in the off-phase of channel %d's drain toggle", now, now, wake, ch)
					}
				}
				for at := now + 1; at <= now+n; at++ {
					ref.Tick(at)
					if want := before.after(at-now, toggling); len(ref.DrainCompletions()) != 0 || !want.equal(freeze(ref)) {
						t.Fatalf("Tick(%d) acted inside the span (%d, %d) NextEventAt approved:\nwant %+v\ngot  %+v", at, now, wake, want, freeze(ref))
					}
				}
				if slices.Contains(toggling, true) {
					toggleSpans[n%2]++
				}
				spans++
				skipped += n
				if len(memo.blocked) > 0 {
					charging++
				}
				memo.ReplaySkipped(now, n)
				if !reflect.DeepEqual(ref.ExportState(), memo.ExportState()) {
					t.Fatalf("replaying (%d, %d] diverged from stepping it:\nstepped  %+v\nreplayed %+v", now, now+n, ref.ExportState(), memo.ExportState())
				}
				if !reflect.DeepEqual(ref.dev.ExportState(), memo.dev.ExportState()) {
					t.Fatalf("device state diverged over (%d, %d]", now, now+n)
				}
				now += n
			}
			if r, w := ref.Pending(); r != 0 || w != 0 {
				t.Fatalf("queues wedged: %d reads, %d writes pending", r, w)
			}
			if spans == 0 || charging == 0 || toggleSpans[0] == 0 || toggleSpans[1] == 0 {
				t.Fatalf("vacuous: %d spans approved, %d of them charging a stall counter, %d even and %d odd ones over a drain toggle", spans, charging, toggleSpans[0], toggleSpans[1])
			}
			t.Logf("%d spans, %d cycles skipped of %d, %d spans charged a counter, %d even and %d odd ones over a drain toggle", spans, skipped, int64(horizon), charging, toggleSpans[0], toggleSpans[1])
		})
	}
}

// TestDrainToggleSkipsInClosedForm builds the drain toggle on purpose:
// no reads and three writes (fewer than LowWatermark), so the flag
// alternates every cycle, all to one bank — a row hit gated by tRCD after
// its ACT, a second hit on the same row, and a row conflict whose PRE
// waits out the tWR of the writes before it, a charged stall. Driven as
// the event engine drives it — a step, then a jump over whatever span the
// step approved — every on-phase walk that issues nothing must approve a
// span and every off-phase walk none, and replaying each prefix of a span
// must equal stepping it.
func TestDrainToggleSkipsInClosedForm(t *testing.T) {
	writes := []core.Address{{Row: 1}, {Row: 1, Column: 1}, {Row: 2}}
	// upTo queues the writes at cycle 0 on a new controller and ticks it
	// through cycle last.
	upTo := func(last int64) *Controller {
		c := newCtrl(t, mcr.Off(), nil)
		for _, a := range writes {
			if !c.EnqueueWrite(encode(c.mapper, a), 0, 0) {
				t.Fatal("write refused")
			}
		}
		for now := int64(0); now <= last; now++ {
			c.Tick(now)
		}
		return c
	}
	c := upTo(-1)
	var spans, charging, replays int
	for now := int64(0); ; now++ {
		if now > 10_000 {
			t.Fatal("the writes never drained")
		}
		before := c.dev.Stats()
		c.Tick(now)
		if _, w := c.Pending(); w == 0 {
			break
		}
		wake := c.NextEventAt(now)
		switch {
		case c.dev.Stats() != before:
			if wake != now+1 {
				t.Fatalf("cycle %d: a command issued, NextEventAt = %d, want %d", now, wake, now+1)
			}
		case !c.drain[0]:
			if wake != now+1 {
				t.Fatalf("cycle %d: off-phase walk, NextEventAt = %d, want %d", now, wake, now+1)
			}
		default:
			if wake <= now+1 {
				t.Fatalf("cycle %d: on-phase walk issued nothing, NextEventAt = %d, want a cycle after %d", now, wake, now+1)
			}
			spans++
			if len(c.blocked) > 0 {
				charging++
			}
			for n := int64(1); now+n < wake; n++ {
				ref, memo := upTo(now), upTo(now)
				for at := now + 1; at <= now+n; at++ {
					ref.Tick(at)
				}
				memo.ReplaySkipped(now, n)
				if !reflect.DeepEqual(ref.ExportState(), memo.ExportState()) || !reflect.DeepEqual(ref.dev.ExportState(), memo.dev.ExportState()) {
					t.Fatalf("replaying (%d, %d] diverged from stepping it:\nstepped  %+v\nreplayed %+v", now, now+n, ref.ExportState(), memo.ExportState())
				}
				replays++
			}
			c.ReplaySkipped(now, wake-now-1)
			now = wake - 1
		}
	}
	if spans < 2 || charging == 0 {
		t.Fatalf("vacuous: %d on-phase spans, %d of them charging a stall counter", spans, charging)
	}
	t.Logf("%d on-phase spans, %d charging, %d prefixes replayed", spans, charging, replays)
}

// TestNextEventAtWithoutAWalk pins the always-safe answer: without a
// Tick(now) whose walk still describes the controller, NextEventAt(now)
// is now+1.
func TestNextEventAtWithoutAWalk(t *testing.T) {
	c := newCtrl(t, mcrtest.Mode(4, 4, 1), nil)
	if got := c.NextEventAt(0); got != 1 {
		t.Errorf("before any Tick: NextEventAt(0) = %d, want 1", got)
	}
	c.Tick(0)
	if got := c.NextEventAt(0); got != c.tREFI {
		t.Errorf("idle controller: NextEventAt(0) = %d, want the first refresh due time %d", got, c.tREFI)
	}
	if got := c.NextEventAt(5); got != 6 {
		t.Errorf("walk at cycle 0, asked about cycle 5: NextEventAt = %d, want 6", got)
	}

	// settle ticks on from cycle now to the first cycle whose walk
	// approves a span, so that the now+1 below is the invalidation's doing.
	settle := func(now int64) int64 {
		t.Helper()
		for ; ; now++ {
			c.Tick(now)
			if c.NextEventAt(now) > now+1 {
				return now
			}
			if now > 10_000 {
				t.Fatal("controller never settled into a skippable span")
			}
		}
	}
	const lineA, lineW = 1 << 21, 1 << 22
	now := settle(1)
	c.EnqueueRead(lineA, 0, now)
	if got := c.NextEventAt(now); got != now+1 {
		t.Errorf("after an enqueued read: NextEventAt(%d) = %d, want %d", now, got, now+1)
	}
	// A write behind the read stays queued while the read's row opens
	// (reads go first below the high watermark): a span with a write to
	// forward from.
	c.EnqueueWrite(lineW, 0, now)
	now = settle(now + 1)
	if r, w := c.Pending(); r != 1 || w != 1 {
		t.Fatalf("settled with %d reads and %d writes queued, want 1 and 1", r, w)
	}
	c.EnqueueRead(lineW, 0, now)
	if r, _ := c.Pending(); r != 1 {
		t.Fatal("read of a queued write's line was queued, not forwarded")
	}
	if got := c.NextEventAt(now); got != now+1 {
		t.Errorf("after a forwarded read: NextEventAt(%d) = %d, want %d", now, got, now+1)
	}
	c.DrainCompletions()
	now = settle(now + 1)
	c.EnqueueWrite(lineW+64, 0, now)
	if got := c.NextEventAt(now); got != now+1 {
		t.Errorf("after an enqueued write: NextEventAt(%d) = %d, want %d", now, got, now+1)
	}

	// A restored controller has no walk to stand on either.
	now = settle(now + 1)
	if err := c.ImportState(c.ExportState()); err != nil {
		t.Fatal(err)
	}
	if got := c.NextEventAt(now); got != now+1 {
		t.Errorf("after ImportState: NextEventAt(%d) = %d, want %d", now, got, now+1)
	}

	// An MRS drain: from the request until the mode is applied.
	now = settle(now + 1)
	if err := c.RequestModeChange(mcr.Off()); err != nil {
		t.Fatal(err)
	}
	if got := c.NextEventAt(now); got != now+1 {
		t.Errorf("mode change just requested: NextEventAt(%d) = %d, want %d", now, got, now+1)
	}
	for now++; c.pendingMode != nil; now++ {
		if now > 20_000 {
			t.Fatal("mode change never applied")
		}
		c.Tick(now)
		if got := c.NextEventAt(now); got != now+1 {
			t.Errorf("MRS drain in progress: NextEventAt(%d) = %d, want %d", now, got, now+1)
		}
	}
}
