// Run is the single entry point for executing a simulation. A Config is
// the one way to set a run up: observability, integrity checking, the
// resilience policy, the mechanism backend, the engine and checkpointing
// are all Config fields, and Run takes the Config by value.

package mcrdram

import (
	"context"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ResilienceConfig enables the graceful-degradation policy: detected
// retention violations become ECC events that can quarantine clone gangs
// and step the device toward safer modes mid-run. Set Config.Resilience
// (implies the integrity checker); stats land in Result.Resilience.
type ResilienceConfig = sim.ResilienceConfig

// Metrics is the cycle-domain observability registry: per-bank command
// counts, row-buffer outcomes, the per-read stall attribution and the
// read-latency histogram. Attach one by setting Config.Metrics; the
// snapshot lands in Result.Obs. The registry may be shared across
// concurrent runs (all increments are atomic); pass a fresh one per run
// for per-run snapshots.
type Metrics = obs.Registry

// Tracer is the bounded ring-buffer cycle-domain event tracer (command
// issues, MRS mode changes, quarantine/governor transitions, integrity
// violations). Attach one by setting Config.Trace; export with its
// WriteChrome method (Chrome trace_event JSON, loadable in Perfetto).
type Tracer = obs.Tracer

// ObsSnapshot is a point-in-time copy of a Metrics registry's counters.
type ObsSnapshot = obs.Snapshot

// NewMetrics returns an empty enabled metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTracer returns a ring-buffer tracer keeping the most recent capacity
// events (capacity <= 0 selects the default, obs.DefaultTraceCap).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// Engine selects the run loop's cycle-advancement strategy (Config.Engine);
// see the package sim documentation for the skip algorithm.
type Engine = sim.Engine

// Supported engines. EventDriven (the default) steps active cycles and
// jumps over provably inert spans; Stepped forces the classic
// cycle-by-cycle reference loop. Both produce byte-identical Results.
const (
	EventDriven = sim.EventDriven
	Stepped     = sim.Stepped
)

// CheckpointConfig configures crash-safe periodic snapshots of the full
// simulator state and resuming from them (Config.Checkpoint). With Resume
// set, a run resumes from an existing snapshot at Path (a missing or
// unreadable one starts fresh); a completed run removes its snapshot. A
// restored run produces a Result identical to the uninterrupted one, even
// when the engines differ across the interruption.
type CheckpointConfig = sim.CheckpointConfig

// Run executes a configuration to completion, aborting early (with the
// context's error) when ctx is cancelled. A nil ctx means
// context.Background().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	return sim.RunContext(ctx, cfg)
}
