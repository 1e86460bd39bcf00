package controller

import (
	"math/rand"
	"testing"

	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// TestRandomTrafficInvariants drives the controller with randomized
// arrivals across modes and policies and checks the liveness and
// accounting invariants: every accepted read completes exactly once, every
// accepted write drains, refresh debt stays bounded, and the run never
// wedges.
func TestRandomTrafficInvariants(t *testing.T) {
	type variant struct {
		name string
		mode mcr.Mode
		mut  func(*Config)
	}
	variants := []variant{
		{"baseline", mcr.Off(), nil},
		{"mcr-4x", mcrtest.Mode(4, 4, 1), nil},
		{"mcr-2of4x", mcrtest.Mode(4, 2, 0.5), nil},
		{"fcfs", mcr.Off(), func(c *Config) { c.Scheduler = FCFS }},
		{"close-page", mcrtest.Mode(4, 4, 1), func(c *Config) { c.RowPolicy = ClosePage }},
		{"permutation", mcr.Off(), func(c *Config) { c.Mapping = PermutationInterleave }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			c := newCtrl(t, v.mode, v.mut)
			rng := rand.New(rand.NewSource(7))
			lines := c.Mapper().TotalLines()

			completed := map[int64]int{}
			var accepted, writesAccepted int64
			const horizon = 120_000
			for now := int64(0); now < horizon; now++ {
				// Random bursty arrivals for the first three quarters.
				if now < horizon*3/4 && rng.Intn(3) == 0 {
					line := rng.Int63n(lines)
					if rng.Intn(100) < 70 {
						if id, ok := c.EnqueueRead(line, 0, now); ok {
							completed[id] = 0
							accepted++
						}
					} else if c.EnqueueWrite(line, 0, now) {
						writesAccepted++
					}
				}
				c.Tick(now)
				for _, comp := range c.DrainCompletions() {
					completed[comp.ID]++
					if comp.DoneAt < comp.ArriveAt {
						t.Fatalf("completion before arrival: %+v", comp)
					}
				}
			}
			r, w := c.Pending()
			if r != 0 || w != 0 {
				t.Fatalf("queues wedged: %d reads, %d writes pending", r, w)
			}
			for id, n := range completed {
				if n != 1 {
					t.Fatalf("read %d completed %d times", id, n)
				}
			}
			st := c.Stats()
			if st.ReadsDone != accepted {
				t.Fatalf("reads done %d != accepted %d", st.ReadsDone, accepted)
			}
			if st.WritesDone != writesAccepted {
				t.Fatalf("writes done %d != accepted %d", st.WritesDone, writesAccepted)
			}
			// Refresh rate: with the debt cap 8, the executed+skipped REFs
			// per rank must be within 8 of the elapsed tREFI count.
			tREFI := int64(c.Device().Timings().Normal.TREFI)
			due := horizon / tREFI
			devSt := c.Device().Stats()
			perRank := (devSt.Refreshes + devSt.SkippedRefreshes) / 2
			if perRank < due-9 {
				t.Fatalf("refresh starvation: %d per rank vs %d due", perRank, due)
			}
		})
	}
}

// TestRandomTrafficDeterminism: the same seed gives bit-identical stats.
func TestRandomTrafficDeterminism(t *testing.T) {
	run := func() (Stats, int64) {
		c := newCtrl(t, mcrtest.Mode(4, 4, 1), nil)
		rng := rand.New(rand.NewSource(3))
		var last int64
		for now := int64(0); now < 30_000; now++ {
			if rng.Intn(4) == 0 {
				if id, ok := c.EnqueueRead(rng.Int63n(1<<20), 0, now); ok {
					last = id
				}
			}
			c.Tick(now)
			c.DrainCompletions()
		}
		return c.Stats(), last
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 || l1 != l2 {
		t.Fatalf("controller nondeterministic: %+v vs %+v", s1, s2)
	}
}
