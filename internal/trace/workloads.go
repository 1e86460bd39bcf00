// Package trace generates the memory-access streams the simulator consumes.
//
// The paper evaluates on the Memory Scheduling Championship traces (five
// commercial server traces, two SPEC, seven PARSEC, two BIOBENCH). Those
// traces are not redistributable, so this package substitutes deterministic
// synthetic generators: one per MSC workload, parameterized by memory
// intensity (MPKI), read fraction, row-buffer locality, burstiness,
// footprint and hot-row skew. The knobs are chosen so the *relative*
// behaviours the paper's results depend on hold — e.g. `tigr` and `mummer`
// are memory-bound with poor row locality (most MCR-sensitive), `comm2` is
// highly skewed (~88% of its requests land on its hottest 10% of rows,
// paper footnote 9), PARSEC workloads are lighter.
package trace

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
)

// Workload describes one synthetic workload's statistical profile.
type Workload struct {
	Name  string
	Suite string

	// MPKI is memory accesses (reads+writes reaching DRAM) per 1000
	// instructions.
	MPKI float64
	// ReadFrac is the fraction of memory accesses that are reads.
	ReadFrac float64
	// RowHit is the probability that an access continues the current row
	// stream instead of jumping to a new row.
	RowHit float64
	// Burst is the probability that the gap before a memory access is
	// drawn from the short (pipelined misses) rather than the long
	// distribution; it controls bank-level parallelism pressure.
	Burst float64
	// FootprintRows is the number of distinct 8 KB rows the workload
	// touches.
	FootprintRows int
	// HotFrac/HotMass shape the row popularity skew: HotMass of all row
	// *jumps* target the hottest HotFrac of the footprint.
	HotFrac float64
	HotMass float64
	// Streams is the number of concurrent row streams the workload
	// round-robins between (memory-level parallelism).
	Streams int
}

// Validate reports whether the profile is self-consistent.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("trace: workload needs a name")
	}
	if err := errors.Join(
		// At most one access per instruction: the mean gap is 1000/MPKI - 1.
		core.Within("trace: MPKI", w.MPKI, core.OpenLo, 0, 1000),
		core.Within("trace: ReadFrac", w.ReadFrac, core.Closed, 0, 1),
		core.Within("trace: RowHit", w.RowHit, core.OpenHi, 0, 1),
		core.Within("trace: Burst", w.Burst, core.Closed, 0, 1),
		core.Within("trace: FootprintRows", w.FootprintRows, core.Closed, 1, math.MaxInt),
		core.Within("trace: HotFrac", w.HotFrac, core.OpenLo, 0, 1),
		core.Within("trace: HotMass", w.HotMass, core.Closed, 0, 1),
		// Streams sizes the generator's table; the catalogue's largest is 8.
		core.Within("trace: Streams", w.Streams, core.Closed, 1, 1<<10),
	); err != nil {
		return fmt.Errorf("%w (workload %s)", err, w.Name)
	}
	if w.HotMass < 1 && w.hotRows() >= w.FootprintRows {
		return fmt.Errorf("trace: %s: hot set covers all %d rows, so HotMass %g < 1 has no cold row to land on",
			w.Name, w.FootprintRows, w.HotMass)
	}
	return nil
}

// hotRows is the size of the hot set: HotFrac of the footprint rounded to
// the nearest row, at least one and, for a valid HotFrac, at most the
// whole footprint.
func (w Workload) hotRows() int {
	return max(int(float64(w.FootprintRows)*w.HotFrac+0.5), 1)
}

// workloads is the catalogue of the 16 single-core MSC workloads (Table 5
// minus the multithreaded pair).
var workloads = []Workload{
	// COMMERCIAL: server workloads, memory-intensive, skewed working sets.
	{Name: "comm1", Suite: "COMMERCIAL", MPKI: 16, ReadFrac: 0.68, RowHit: 0.58, Burst: 0.55, FootprintRows: 26000, HotFrac: 0.02, HotMass: 0.62, Streams: 6},
	{Name: "comm2", Suite: "COMMERCIAL", MPKI: 24, ReadFrac: 0.66, RowHit: 0.52, Burst: 0.60, FootprintRows: 30000, HotFrac: 0.01, HotMass: 0.885, Streams: 6},
	{Name: "comm3", Suite: "COMMERCIAL", MPKI: 13, ReadFrac: 0.70, RowHit: 0.60, Burst: 0.50, FootprintRows: 22000, HotFrac: 0.025, HotMass: 0.55, Streams: 5},
	{Name: "comm4", Suite: "COMMERCIAL", MPKI: 9, ReadFrac: 0.72, RowHit: 0.64, Burst: 0.45, FootprintRows: 18000, HotFrac: 0.03, HotMass: 0.50, Streams: 4},
	{Name: "comm5", Suite: "COMMERCIAL", MPKI: 11, ReadFrac: 0.69, RowHit: 0.56, Burst: 0.50, FootprintRows: 20000, HotFrac: 0.02, HotMass: 0.58, Streams: 5},
	// SPEC: leslie3d streams with long bursts; libquantum sweeps a vector.
	{Name: "leslie", Suite: "SPEC", MPKI: 29, ReadFrac: 0.75, RowHit: 0.66, Burst: 0.70, FootprintRows: 34000, HotFrac: 0.04, HotMass: 0.45, Streams: 8},
	{Name: "libq", Suite: "SPEC", MPKI: 26, ReadFrac: 0.88, RowHit: 0.72, Burst: 0.65, FootprintRows: 16000, HotFrac: 0.05, HotMass: 0.40, Streams: 3},
	// PARSEC: lighter, more compute-bound.
	{Name: "black", Suite: "PARSEC", MPKI: 7, ReadFrac: 0.74, RowHit: 0.62, Burst: 0.40, FootprintRows: 12000, HotFrac: 0.03, HotMass: 0.50, Streams: 4},
	{Name: "face", Suite: "PARSEC", MPKI: 6, ReadFrac: 0.71, RowHit: 0.58, Burst: 0.40, FootprintRows: 11000, HotFrac: 0.03, HotMass: 0.48, Streams: 4},
	{Name: "ferret", Suite: "PARSEC", MPKI: 10, ReadFrac: 0.70, RowHit: 0.50, Burst: 0.45, FootprintRows: 15000, HotFrac: 0.025, HotMass: 0.52, Streams: 5},
	{Name: "fluid", Suite: "PARSEC", MPKI: 5, ReadFrac: 0.73, RowHit: 0.63, Burst: 0.35, FootprintRows: 10000, HotFrac: 0.03, HotMass: 0.46, Streams: 4},
	{Name: "freq", Suite: "PARSEC", MPKI: 7, ReadFrac: 0.72, RowHit: 0.59, Burst: 0.40, FootprintRows: 12000, HotFrac: 0.03, HotMass: 0.50, Streams: 4},
	{Name: "stream", Suite: "PARSEC", MPKI: 21, ReadFrac: 0.63, RowHit: 0.74, Burst: 0.65, FootprintRows: 28000, HotFrac: 0.06, HotMass: 0.38, Streams: 6},
	{Name: "swapt", Suite: "PARSEC", MPKI: 5, ReadFrac: 0.70, RowHit: 0.55, Burst: 0.35, FootprintRows: 9000, HotFrac: 0.03, HotMass: 0.48, Streams: 3},
	// BIOBENCH: genome tools, pointer-chasing, hostile to row buffers.
	{Name: "mummer", Suite: "BIOBENCH", MPKI: 33, ReadFrac: 0.82, RowHit: 0.24, Burst: 0.50, FootprintRows: 30000, HotFrac: 0.015, HotMass: 0.55, Streams: 6},
	{Name: "tigr", Suite: "BIOBENCH", MPKI: 38, ReadFrac: 0.84, RowHit: 0.18, Burst: 0.50, FootprintRows: 32000, HotFrac: 0.015, HotMass: 0.50, Streams: 6},
}

// multithreaded are the two MT workloads used only in the multi-core runs;
// the four cores of an MT workload share one footprint and hot set.
var multithreaded = []Workload{
	{Name: "MT-fluid", Suite: "PARSEC", MPKI: 6, ReadFrac: 0.72, RowHit: 0.60, Burst: 0.45, FootprintRows: 24000, HotFrac: 0.03, HotMass: 0.50, Streams: 4},
	{Name: "MT-canneal", Suite: "PARSEC", MPKI: 18, ReadFrac: 0.78, RowHit: 0.30, Burst: 0.50, FootprintRows: 40000, HotFrac: 0.02, HotMass: 0.55, Streams: 6},
}

// extras are auxiliary profiles outside the paper's Table 5 catalogue,
// resolvable through ByName but deliberately excluded from Workloads()
// and SingleCoreNames() so the Table-5-pinned sweeps stay exact. "idle"
// is the near-empty-pipeline stressor for the event-driven engine: at
// 0.05 MPKI the mean inter-access gap is ~20000 instructions, so almost
// every memory cycle is provably quiescent and skippable.
var extras = []Workload{
	{Name: "idle", Suite: "SYNTH", MPKI: 0.05, ReadFrac: 0.70, RowHit: 0.60, Burst: 0.20, FootprintRows: 4000, HotFrac: 0.05, HotMass: 0.50, Streams: 2},
}

// SingleCoreNames lists the 16 workloads the paper uses for single-core
// simulations (everything but the MT- pair), in Table 5 order.
func SingleCoreNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// Workloads returns the full catalogue (18 entries) including the
// multithreaded pair.
func Workloads() []Workload {
	all := make([]Workload, 0, len(workloads)+len(multithreaded))
	all = append(all, workloads...)
	all = append(all, multithreaded...)
	return all
}

// ByName looks a workload profile up by its Table 5 name, or by the name
// of one of the auxiliary (non-catalogue) profiles.
// It scans the package tables in place: NewSim calls it once per core,
// and Workloads would build the catalogue for every call.
func ByName(name string) (Workload, error) {
	for _, table := range [...][]Workload{workloads, multithreaded, extras} {
		for i := range table {
			if table[i].Name == name {
				return table[i], nil
			}
		}
	}
	var valid []string
	for _, w := range Workloads() {
		valid = append(valid, w.Name)
	}
	return Workload{}, fmt.Errorf("trace: unknown workload %q (valid: %s)", name, strings.Join(valid, ", "))
}

// SuiteNames returns the four suite labels in Table 5 order.
func SuiteNames() []string {
	return []string{"COMMERCIAL", "SPEC", "PARSEC", "BIOBENCH"}
}

// BySuite returns the single-core workloads of one suite.
func BySuite(suite string) []Workload {
	var out []Workload
	for _, w := range workloads {
		if w.Suite == suite {
			out = append(out, w)
		}
	}
	return out
}
