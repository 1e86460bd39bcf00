// The instrumentation sink: every finished simulation is reported as an
// Event. The executor serializes Event calls under its own mutex, so any
// sink — including one appending to a plain slice — is race-free.

package runplan

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// Kind tags what a finished run was.
type Kind string

// Event kinds.
const (
	// KindBaseline is a simulation whose config was first referenced as
	// a spec's Baseline.
	KindBaseline Kind = "baseline"
	// KindVariant is a simulation whose config was first referenced as a
	// spec's Run.
	KindVariant Kind = "variant"
	// KindFailed is a simulation that failed under Executor.KeepGoing;
	// Event.Err carries the labelled error text.
	KindFailed Kind = "failed"
)

// RunStats instruments one finished simulation.
type RunStats struct {
	// Wall is the host wall-clock duration of the run.
	Wall time.Duration
	// MemCycles is the simulated length in memory-clock cycles; Retired
	// is the total instructions retired across all cores.
	MemCycles int64
	Retired   int64
}

// CyclesPerSec is the simulation throughput in simulated memory cycles
// per wall-clock second.
func (s RunStats) CyclesPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.MemCycles) / s.Wall.Seconds()
}

// InstsPerSec is the simulation throughput in retired instructions per
// wall-clock second.
func (s RunStats) InstsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Retired) / s.Wall.Seconds()
}

// Event describes one finished run within a plan execution.
type Event struct {
	// Plan is the plan's name; Workload/Config label the run with the
	// labels of the first spec that referenced its config.
	Plan     string
	Kind     Kind
	Workload string
	Config   string
	// Done counts finished simulations including this one; Total is the
	// number the plan will issue (its distinct configs, Run and Baseline
	// alike); Pending is the number not yet finished.
	Done    int
	Total   int
	Pending int
	Stats   RunStats
	// Obs is the run's observability snapshot, non-nil only when the
	// executor attached metrics (Executor.Metrics) or the run's config
	// carried a registry of its own.
	Obs *obs.Snapshot
	// Err is the failure text for KindFailed events (empty otherwise).
	Err string
}

// Sink receives run events. The executor serializes calls, so
// implementations need no locking of their own.
type Sink interface {
	Event(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Event implements Sink.
func (f SinkFunc) Event(e Event) { f(e) }

// LineSink returns a sink that writes one human-readable line per event,
// e.g. for -v progress on stderr.
func LineSink(w io.Writer) Sink {
	return SinkFunc(func(e Event) {
		if e.Kind == KindFailed {
			fmt.Fprintf(w, "%s [%d/%d] %s %s · FAILED: %s, %d pending\n",
				e.Plan, e.Done, e.Total, e.Workload, e.Config, e.Err, e.Pending)
			return
		}
		fmt.Fprintf(w, "%s [%d/%d] %s %s · %s: %.0f ms, %.2f Mcyc/s, %.2f Minst/s, %d pending\n",
			e.Plan, e.Done, e.Total, e.Workload, e.Config, e.Kind,
			float64(e.Stats.Wall.Microseconds())/1e3,
			e.Stats.CyclesPerSec()/1e6, e.Stats.InstsPerSec()/1e6, e.Pending)
	})
}

// ObsLineSink returns a LineSink that additionally summarizes each run's
// observability snapshot — row-buffer hit rate and the dominant stall
// component — when the executor recorded one (Executor.Metrics).
func ObsLineSink(w io.Writer) Sink {
	base := LineSink(w)
	return SinkFunc(func(e Event) {
		base.Event(e)
		o := e.Obs
		if o == nil || e.Kind == KindFailed {
			return
		}
		accesses := o.RowHits + o.RowMisses + o.RowConflicts
		hitRate := 0.0
		if accesses > 0 {
			hitRate = float64(o.RowHits) / float64(accesses) * 100
		}
		top, topVal := obs.StallQueue, int64(-1)
		for c := obs.StallComponent(0); c < obs.NumStallComponents; c++ {
			if o.Stall[c] > topVal {
				top, topVal = c, o.Stall[c]
			}
		}
		topPct := 0.0
		if t := o.Stall.Total(); t > 0 {
			topPct = float64(topVal) / float64(t) * 100
		}
		fmt.Fprintf(w, "    obs: %.1f%% row hits, top stall %s (%.0f%%), %d ACTs, %d REFs\n",
			hitRate, top, topPct, o.Commands["ACT"], o.Commands["REF"])
	})
}
