// Failure taxonomy for hardened plan execution: panics recovered inside
// a worker become PanicError values, and every spec-level failure is
// wrapped in a SpecError carrying the workload/config labels, so a sweep
// over hundreds of cells reports *which* one was poisoned instead of
// crashing the process or returning an anonymous error.

package runplan

import (
	"fmt"
)

// PanicError is a panic recovered from a simulation run (typically a
// dram command-legality panic on an illegal schedule) converted into an
// ordinary error so one poisoned config fails its spec, not the process.
type PanicError struct {
	// Value is the value passed to panic; Stack is the goroutine stack
	// captured at recovery.
	Value any
	Stack []byte
}

// Error implements error. The stack is kept out of the one-line message;
// callers that want it read the field.
func (e *PanicError) Error() string {
	return fmt.Sprintf("simulation panicked: %v", e.Value)
}

// SpecError labels a spec failure with the plan cell that produced it.
type SpecError struct {
	Workload string
	Config   string
	// Baseline is true when the failed simulation's config was first
	// referenced as a spec's Baseline rather than its Run.
	Baseline bool
	Err      error
}

// Error implements error.
func (e *SpecError) Error() string {
	role := "spec"
	if e.Baseline {
		role = "baseline"
	}
	return fmt.Sprintf("runplan: %s %s · %s failed: %v", role, e.Workload, e.Config, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *SpecError) Unwrap() error { return e.Err }
