// Chrome trace_event exporter: traced runs open directly in
// about:tracing or https://ui.perfetto.dev. One process per trace group
// (a run), one thread per (channel, rank, bank), with policy instants on
// a dedicated thread 0. Timestamps are microseconds of simulated time
// (1 memory cycle = 1.25 ns), so the exported JSON is as deterministic
// as the simulation.

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
)

// TraceGroup is one run's events under one label; WriteChromeGroups
// renders each group as its own process so sweeps merge into one file.
// Dropped is how many older events the run's ring overwrote; the Chrome
// export leaves it out and the CLIs report it on stderr.
type TraceGroup struct {
	Label   string
	Events  []Event
	Dropped int64
}

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// instantTID is the thread policy instants land on (no real bank owns
// thread id 0: bank threads start at 1).
const instantTID = 0

// tidOf flattens a command event's coordinates into a stable thread id.
func tidOf(ev Event) int {
	if ev.Kind.Instant() || ev.Channel < 0 {
		return instantTID
	}
	bank := ev.Bank
	if bank < 0 {
		bank = 0
	}
	return 1 + int(ev.Channel)<<16 | int(ev.Rank)<<8 | int(bank)
}

// threadName renders a command thread's label.
func threadName(ev Event) string {
	if ev.Bank < 0 {
		return fmt.Sprintf("ch%d rank%d", ev.Channel, ev.Rank)
	}
	return fmt.Sprintf("ch%d rank%d bank%d", ev.Channel, ev.Rank, ev.Bank)
}

// cyclesToUS converts memory cycles to trace microseconds.
func cyclesToUS(c int64) float64 { return core.MemCyclesToNS(c) / 1e3 }

// WriteChrome exports the tracer's buffered events as a Chrome
// trace_event JSON object.
func (t *Tracer) WriteChrome(w io.Writer, label string) error {
	return WriteChromeGroups(w, []TraceGroup{{Label: label, Events: t.Events(), Dropped: t.Dropped()}})
}

// WriteChromeGroups exports several runs' events into one trace file,
// one process per group. Output is deterministic for deterministic
// event streams: metadata first (groups in order, threads sorted by
// id), then events in emit order per group.
func WriteChromeGroups(w io.Writer, groups []TraceGroup) error {
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ns"}

	for pid, g := range groups {
		label := g.Label
		if label == "" {
			label = fmt.Sprintf("run %d", pid)
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid, TID: instantTID,
			Args: map[string]any{"name": label},
		})
		threads := map[int]string{instantTID: "policy events"}
		for _, ev := range g.Events {
			if tid := tidOf(ev); tid != instantTID {
				threads[tid] = threadName(ev)
			}
		}
		tids := make([]int, 0, len(threads))
		for tid := range threads { //mcrlint:allow determinism sorted immediately below, order-free
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": threads[tid]},
			})
		}
		for _, ev := range g.Events {
			ce := chromeEvent{
				Name: ev.Kind.String(),
				TS:   cyclesToUS(ev.TS),
				PID:  pid,
				TID:  tidOf(ev),
			}
			if ev.Kind.Instant() {
				ce.Phase, ce.Scope = "i", "p"
			} else {
				dur := cyclesToUS(int64(ev.Dur))
				ce.Phase, ce.Dur = "X", &dur
			}
			args := make(map[string]any, 2)
			if ev.Row >= 0 {
				args["row"] = ev.Row
			}
			if ev.Arg != 0 {
				args["arg"] = ev.Arg
			}
			if len(args) > 0 {
				ce.Args = args
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
