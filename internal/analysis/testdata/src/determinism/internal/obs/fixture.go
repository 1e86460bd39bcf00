package obs

import "time"

// Snapshot stands in for obs.Snapshot: exported metric values must be
// cycle-domain quantities, pure functions of config and seed.
type Snapshot struct {
	Reads           int64
	RefreshDebtPeak int64
}

// hostNanos reads the wall clock one frame below Capture: flagged at the
// read, not at the field it reaches.
func hostNanos() int64 {
	return time.Now().UnixNano() // want `time\.Now is wall-clock nondeterminism`
}

func Capture() *Snapshot {
	return &Snapshot{Reads: hostNanos()}
}

// A cycle-domain counter: quiet.
func CaptureCycles(reads int64) *Snapshot {
	return &Snapshot{Reads: reads}
}

// The escape hatch: an annotated read is suppressed.
func CaptureAllowed() *Snapshot {
	now := time.Now().UnixNano() //mcrlint:allow determinism wall-clock instrumentation
	return &Snapshot{RefreshDebtPeak: now}
}
