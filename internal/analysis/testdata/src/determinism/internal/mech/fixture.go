package mech

import (
	"math/rand"
	"time"
)

// A mechanism backend deciding when to copy a hot row: its decisions feed
// Result counters, so the package is in the determinism scope.

// Wall-clock reads in a backend: flagged.
func copyDeadline() int64 {
	return time.Now().UnixNano() // want `time\.Now is wall-clock nondeterminism`
}

// The global math/rand source picking a spare row: flagged.
func pickSpare(n int) int {
	return rand.Intn(n) // want `rand\.Intn draws from the global math/rand source`
}

// Map iteration feeding an append (e.g. collecting quarantined rows):
// flagged.
func quarantined(rows map[int]bool) []int {
	var out []int
	for r := range rows { // want `range over map feeds an append`
		out = append(out, r)
	}
	return out
}

// Writes keyed by the map key: quiet, the end state is order-free.
func demote(rows map[int]bool, k map[int]int) {
	for r := range rows {
		k[r] = 1
	}
}

// Stats stands in for mech.Stats, whose counters land in sim.Result.
type Stats struct {
	CopyCycles int64
}

// hostNanos reads the wall clock one frame below a counter update:
// flagged at the read.
func hostNanos() int64 {
	return time.Now().UnixNano() // want `time\.Now is wall-clock nondeterminism`
}

func recordCopy(s *Stats) {
	s.CopyCycles = hostNanos()
}
