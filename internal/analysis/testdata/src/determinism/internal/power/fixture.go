package power

import "time"

// Sample returns a wall-clock-derived reading one package below the
// result it feeds (sim.RunPower): flagged here, at its source.
func Sample() float64 {
	return float64(time.Now().UnixNano()) // want `time\.Now is wall-clock nondeterminism`
}
