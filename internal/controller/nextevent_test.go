package controller

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// frozenState is what a Tick inside an approved span must leave alone:
// nothing issues, no drain flag flips, no refresh obligation moves.
type frozenState struct {
	dev     dram.Stats
	ctrl    Stats
	drain   []bool
	refresh []rankRefresh
}

func freeze(c *Controller) frozenState {
	return frozenState{dev: c.dev.Stats(), ctrl: c.stats, drain: slices.Clone(c.drain), refresh: slices.Clone(c.refresh)}
}

func (f frozenState) equal(g frozenState) bool {
	return f.dev == g.dev && f.ctrl == g.ctrl && slices.Equal(f.drain, g.drain) && slices.Equal(f.refresh, g.refresh)
}

// TestWakeIsConservative checks the memo against the walk it came from,
// on two controllers fed the same seeded random traffic. ref steps every
// cycle. memo asks NextEventAt after each Tick; whenever that approves a
// span, no request arrives for a random prefix of it, ref steps the
// prefix — every one of those Ticks must issue nothing and leave drain
// flags and refresh obligations alone — and memo replays it in closed
// form, after which the two controllers and their devices must be in the
// same state, stall counters of every queued request included.
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
			lines := ref.Mapper().TotalLines()
			var spans, charging, skipped int64
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
				before := freeze(ref)
				for at := now + 1; at <= now+n; at++ {
					ref.Tick(at)
					if len(ref.DrainCompletions()) != 0 || !before.equal(freeze(ref)) {
						t.Fatalf("Tick(%d) acted inside the span (%d, %d) NextEventAt approved:\nbefore %+v\nafter  %+v", at, now, wake, before, freeze(ref))
					}
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
			if spans == 0 || charging == 0 {
				t.Fatalf("vacuous: %d spans approved, %d of them charging a stall counter", spans, charging)
			}
			t.Logf("%d spans, %d cycles skipped of %d, %d spans charged a counter", spans, skipped, int64(horizon), charging)
		})
	}
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
	for now++; c.ModeChangePending(); now++ {
		if now > 20_000 {
			t.Fatal("mode change never applied")
		}
		c.Tick(now)
		if got := c.NextEventAt(now); got != now+1 {
			t.Errorf("MRS drain in progress: NextEventAt(%d) = %d, want %d", now, got, now+1)
		}
	}
}
