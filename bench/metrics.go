package bench

import (
	"fmt"
	"math"
	"sort"
)

// Def declares one metric: its name, unit and which direction is better.
// Regression bounds live in BENCHMARK.json only; bench_test.go checks
// that the two lists agree.
type Def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// Value is one measured metric as it is printed.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// EndToEnd lists the metrics of the tracing-off pass. wall_*, sim_mips,
// setup_s, alloc_kb_per_run and peak_rss_mb are host measurements;
// sim_ipc is a simulated statistic, exact for a seed.
//
// fail_ratio (failed ÷ attempted) and paper_gap_pp are printed by the
// all-workloads mode and kept in the BENCH_*.json records but are not
// declared here: the driver contract wants metrics that are never zero
// and that exist on every workload, and carries failures in the result
// line's own attempted/failed fields.
var EndToEnd = []Def{
	{"wall_s_p50", "s", "lower"},
	{"wall_s_p75", "s", "lower"},
	{"sim_mips", "Minst/s", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_kb_per_run", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"sim_ipc", "inst/cycle", "higher"},
}

// PerLayer lists the metrics of the traced pass, layer by layer (layer =
// package). Counts are simulated and repeat exactly for a seed; *_ns,
// *_ms, *_us and the ratios of walls are host time.
var PerLayer = []Def{
	// sim: the engine around the step body.
	{"sim.mem_cycles", "count", "lower"},
	{"sim.active_steps", "count", "lower"},
	{"sim.skip_ratio", "ratio", "higher"},
	{"sim.ns_per_mem_cycle", "ns", "lower"},
	{"sim.ns_per_active_step", "ns", "lower"},
	{"sim.ns_per_read", "ns", "lower"},
	{"sim.stepped_ns_per_mem_cycle", "ns", "lower"},
	{"sim.engine_ratio", "ratio", "lower"},
	{"sim.horizon_query_ns_per_step", "ns", "lower"},
	{"sim.residual_ns_per_active_step", "ns", "lower"},
	// cpu
	{"cpu.cycle_ns", "ns", "lower"},
	{"cpu.cycle_calls", "count", "lower"},
	{"cpu.step_share", "ratio", "lower"},
	{"cpu.skip_bound_ns", "ns", "lower"},
	{"cpu.retired_insts", "count", "higher"},
	{"cpu.fetch_stalls", "count", "lower"},
	// controller
	{"controller.tick_ns", "ns", "lower"},
	{"controller.step_share", "ratio", "lower"},
	{"controller.next_event_ns", "ns", "lower"},
	{"controller.enqueue_ns", "ns", "lower"},
	{"controller.enqueue_reject_ratio", "ratio", "lower"},
	{"controller.drain_ns", "ns", "lower"},
	{"controller.reads_done", "count", "higher"},
	{"controller.writes_done", "count", "higher"},
	{"controller.row_hit_ratio", "ratio", "higher"},
	{"controller.forced_refreshes", "count", "lower"},
	{"controller.avg_read_wait_cycles", "cycles", "lower"},
	// dram
	{"dram.activates", "count", "lower"},
	{"dram.reads", "count", "lower"},
	{"dram.writes", "count", "lower"},
	{"dram.precharges", "count", "lower"},
	{"dram.refreshes", "count", "lower"},
	{"dram.skipped_refreshes", "count", "higher"},
	{"dram.cmd_ns", "ns", "lower"},
	{"dram.earliest_query_ns", "ns", "lower"},
	{"dram.next_ready_ns", "ns", "lower"},
	{"dram.rank_busy_ns", "ns", "lower"},
	{"dram.est_share", "ratio", "lower"},
	// mech
	{"mech.row_params_ns", "ns", "lower"},
	{"mech.on_activate_ns", "ns", "lower"},
	{"mech.row_params_off_ns", "ns", "lower"},
	{"mech.on_activate_off_ns", "ns", "lower"},
	{"mech.mcr_activate_ratio", "ratio", "higher"},
	// trace, alloc, timing: the set-up layers.
	{"trace.next_ns", "ns", "lower"},
	{"trace.records", "count", "lower"},
	{"trace.profile_ms", "ms", "lower"},
	{"alloc.build_ms", "ms", "lower"},
	{"timing.resolve_us", "us", "lower"},
	// obs
	{"obs.counter_ns", "ns", "lower"},
	{"obs.tick_delta_ns", "ns", "lower"},
	{"obs.run_overhead_ratio", "ratio", "lower"},
	{"obs.events_emitted", "count", "lower"},
	{"obs.events_dropped", "count", "lower"},
	{"obs.snapshot_ms", "ms", "lower"},
	// integrity, fault
	{"integrity.hook_ns", "ns", "lower"},
	{"integrity.tick_delta_ns", "ns", "lower"},
	{"integrity.run_overhead_ratio", "ratio", "lower"},
	{"integrity.violations", "count", "lower"},
	{"fault.ecc_events", "count", "lower"},
	{"fault.quarantined_rows", "count", "lower"},
	// snapshot
	{"snapshot.writes", "count", "lower"},
	{"snapshot.bytes", "count", "lower"},
	{"snapshot.encode_ms", "ms", "lower"},
	{"snapshot.write_file_ms", "ms", "lower"},
	{"snapshot.restore_ms", "ms", "lower"},
	{"snapshot.run_overhead_ratio", "ratio", "lower"},
	// runplan, experiments
	{"runplan.runs_executed", "count", "lower"},
	{"runplan.baseline_runs", "count", "lower"},
	{"runplan.pool_busy_ratio", "ratio", "higher"},
	{"runplan.overhead_ms", "ms", "lower"},
	{"runplan.serial_ratio", "ratio", "lower"},
	{"experiments.paper_gap_pp", "pp", "lower"},
	// bench: the harness's own tracing.
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.loop_fidelity", "count", "higher"},
}

// Metrics collects named values against a declared list and refuses
// undeclared or repeated names, so a pass cannot print a metric
// BENCHMARK.json does not know.
type Metrics struct {
	defs map[string]Def
	vals map[string]Value
	err  error // the first refused set, reported by done
}

func newMetrics(defs []Def) *Metrics {
	m := &Metrics{defs: make(map[string]Def, len(defs)), vals: make(map[string]Value, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

// set records one value. An undeclared or repeated name or a non-finite
// value is a bug in the harness; the first one is kept and fails done.
func (m *Metrics) set(name string, v float64) {
	d, ok := m.defs[name]
	_, dup := m.vals[name]
	switch {
	case m.err != nil:
	case !ok:
		m.err = fmt.Errorf("bench: undeclared metric %s", name)
	case dup:
		m.err = fmt.Errorf("bench: metric %s set twice", name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		m.err = fmt.Errorf("bench: metric %s is not finite: %v", name, v)
	default:
		m.vals[name] = Value{Value: v, Unit: d.Unit}
	}
}

// done returns the collected values, or an error naming what is missing.
func (m *Metrics) done() (map[string]Value, error) {
	if m.err != nil {
		return nil, m.err
	}
	var missing []string
	for name := range m.defs {
		if _, ok := m.vals[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("bench: metrics not produced: %v", missing)
	}
	return m.vals, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio divides, returning 0 for an empty base (a count that never
// happened has no ratio).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
