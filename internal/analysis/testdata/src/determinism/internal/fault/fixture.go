// The fault-injection model promises that weak-cell populations and their
// retention tails are pure functions of the seed, so the determinism check
// covers internal/fault like the simulation packages.

package fault

import (
	"math/rand"
	"time"
)

// Seeding a fault population from the wall clock: flagged.
func clockSeed() int64 {
	return time.Now().UnixNano() // want `time\.Now is wall-clock nondeterminism`
}

// Drawing weak cells from the global source: flagged.
func globalWeakCell(rows int) int {
	return rand.Intn(rows) // want `rand\.Intn draws from the global math/rand source`
}

// The real models hash (seed, row, salt) deterministically: quiet.
func hashedWeakCell(seed int64, row int) uint64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(row)
	h ^= h >> 30
	return h
}

// Schedule events collected from a map range: flagged (event order must
// not depend on map iteration).
func collectEvents(byRow map[int]float64) []float64 {
	var out []float64
	for _, at := range byRow { // want `range over map feeds an append`
		out = append(out, at)
	}
	return out
}
