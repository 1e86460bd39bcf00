package trace

import "time"

// Every package under internal/ is in scope, not only the ones that
// assemble a sim.Result.
func stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now is wall-clock nondeterminism`
}
