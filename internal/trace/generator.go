// The synthetic trace generator: turns a Workload profile into a
// deterministic stream of (instruction gap, op, line address) records.
//
// Determinism contract: all randomness flows through one *rand.Rand over
// this package's source (source.go), seeded with seed ^ hashName(w.Name).
// The source draws math/rand's exact stream for that seed — a generator
// over rand.NewSource(seed ^ hashName(w.Name)) yields the same records —
// and only seeds faster. Never the global math/rand source, which is
// process-seeded and would make runs unrepeatable. Two generators constructed with equal (Workload, seed,
// totalInsts, baseRow) yield byte-identical record streams; the run-plan
// engine's baseline memoization and sweep caching depend on that, and
// mcrlint's determinism check enforces the no-global-rand half
// mechanically.

package trace

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Record is one memory access preceded by Gap non-memory instructions.
type Record struct {
	Gap  int         // non-memory instructions before this access
	Kind core.OpKind // read or write
	Line int64       // physical cache-line number (64 B granularity)
}

// LinesPerRow is the number of cache lines per 8 KB DRAM row (paper
// Table 4: 128 columns of 64 B).
const LinesPerRow = 128

// Generator produces the bounded access stream of one core.
type Generator struct {
	w     Workload
	rng   *rand.Rand
	insts int64 // instruction budget remaining
	base  int64 // base row offset of this core's address-space slice

	streams []stream // active row streams, round-robined
	cur     int      // index of the current stream

	calls int64 // successful Next() calls, for checkpoint replay
}

// stream is one sequential walk through a row.
type stream struct {
	row int64
	col int
}

// New builds a generator for workload w that retires totalInsts
// instructions, placing the workload's footprint at baseRow (multi-core
// runs give each core a disjoint slice of the physical space). The stream
// is fully determined by (w, seed, totalInsts, baseRow).
func New(w Workload, seed int64, totalInsts int64, baseRow int64) (*Generator, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if totalInsts <= 0 {
		return nil, fmt.Errorf("trace: instruction budget must be positive, got %d", totalInsts)
	}
	if baseRow < 0 {
		// Rows below zero are lines below zero, which the record stream
		// reserves for "no memory access".
		return nil, fmt.Errorf("trace: base row must not be negative, got %d", baseRow)
	}
	g := &Generator{
		w:     w,
		rng:   rand.New(newSource(seed ^ hashName(w.Name))),
		insts: totalInsts,
		base:  baseRow,
	}
	g.streams = make([]stream, w.Streams)
	for i := range g.streams {
		g.streams[i] = stream{row: g.pickRow(), col: g.rng.Intn(LinesPerRow)}
	}
	return g, nil
}

// hashName folds a workload name into a seed component so different
// workloads sharing a base seed still diverge.
func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// pickRow samples a footprint row: HotMass of jumps land uniformly in the
// hottest HotFrac rows, the rest uniformly in the cold remainder. Hot rows
// are scattered across the row space (stride permutation) so they spread
// over banks the way real hot pages do.
func (g *Generator) pickRow() int64 {
	f, hot := g.w.FootprintRows, g.w.hotRows()
	var idx int
	if g.rng.Float64() < g.w.HotMass {
		idx = g.rng.Intn(hot)
	} else {
		idx = hot + g.rng.Intn(f-hot)
	}
	// Scatter: multiply by an odd constant mod footprint to decluster the
	// hot set while keeping the mapping a bijection on [0, f).
	scattered := int64(idx) * 2654435761 % int64(f)
	return g.base + scattered
}

// Next returns the next record and false when the instruction budget is
// exhausted. The Gap of the final sentinel record carries any trailing
// non-memory instructions with Line < 0.
func (g *Generator) Next() (Record, bool) {
	if g.insts <= 0 {
		return Record{}, false
	}
	gap := g.gap()
	if int64(gap)+1 > g.insts {
		// Tail: all remaining instructions are non-memory.
		r := Record{Gap: int(g.insts), Line: -1}
		g.insts = 0
		g.calls++
		return r, true
	}
	g.insts -= int64(gap) + 1

	s := &g.streams[g.cur]
	if g.rng.Float64() >= g.w.RowHit || s.col >= LinesPerRow {
		*s = stream{row: g.pickRow(), col: g.rng.Intn(LinesPerRow / 4)}
	}
	line := s.row*LinesPerRow + int64(s.col)
	s.col++
	// Round-robin across streams to create bank-level parallelism.
	g.cur = (g.cur + 1) % len(g.streams)

	kind := core.OpWrite
	if g.rng.Float64() < g.w.ReadFrac {
		kind = core.OpRead
	}
	g.calls++
	return Record{Gap: gap, Kind: kind, Line: line}, true
}

// Exhausted reports whether the instruction budget is spent: every
// subsequent Next returns false without mutating the generator. The
// event-driven engine's CPU skip bound uses this to prove a core can
// make no further fetch progress during a skipped span.
func (g *Generator) Exhausted() bool { return g.insts <= 0 }

// Calls returns the number of successful Next calls so far. Because the
// generator's only mutable state is its RNG and the stream walk both of
// which advance exactly once per successful Next, (constructor arguments,
// Calls) fully determines the generator's position — the checkpoint layer
// restores a generator by rebuilding it and replaying that many calls.
func (g *Generator) Calls() int64 { return g.calls }

// Replay advances a freshly built generator by n successful Next calls,
// discarding the records; it restores the exact RNG and stream position a
// checkpointed generator had. Replaying past the end of the stream is an
// error (the snapshot did not come from this generator's configuration).
func (g *Generator) Replay(n int64) error {
	if n < g.calls {
		return fmt.Errorf("trace: cannot replay %d calls: generator already at %d", n, g.calls)
	}
	for g.calls < n {
		if _, ok := g.Next(); !ok {
			return fmt.Errorf("trace: stream exhausted after %d of %d replayed calls", g.calls, n)
		}
	}
	return nil
}

// gap draws the non-memory instruction count before the next access. The
// mean gap is 1000/MPKI - 1; bursty accesses (probability Burst) use a
// short uniform gap, the remainder a geometric long gap with the mean
// adjusted so the aggregate MPKI is preserved.
func (g *Generator) gap() int {
	mean := 1000/g.w.MPKI - 1
	if mean < 0 {
		mean = 0
	}
	const shortMean = 1.5 // uniform over {0..3}
	if g.rng.Float64() < g.w.Burst {
		return g.rng.Intn(4)
	}
	longMean := (mean - g.w.Burst*shortMean) / (1 - g.w.Burst)
	if longMean <= 0 {
		return 0
	}
	// Geometric via exponential rounding keeps the generator allocation-free.
	v := int(g.rng.ExpFloat64() * longMean)
	const maxGap = 100000
	if v > maxGap {
		v = maxGap
	}
	return v
}

// Profile runs a standalone pass over a fresh copy of the stream and
// returns per-row access counts, keyed by row number. The profile pass is
// what the paper's pseudo profile-based page allocation consumes.
func Profile(w Workload, seed, totalInsts, baseRow int64) (map[int64]int64, error) {
	g, err := New(w, seed, totalInsts, baseRow)
	if err != nil {
		return nil, err
	}
	counts := make(map[int64]int64)
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if r.Line >= 0 {
			counts[r.Line/LinesPerRow]++
		}
	}
	return counts, nil
}
