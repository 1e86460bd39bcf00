//go:build race

package sim

// raceEnabled: the race detector pads tiny allocations, so exact byte
// counts only hold without it.
const raceEnabled = true
