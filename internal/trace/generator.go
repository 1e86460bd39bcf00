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
	"math/bits"
	"math/rand"
	"sync"

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
	counts := make(map[int64]int64)
	if err := walk(w, seed, totalInsts, baseRow, func(row int64) { counts[row]++ }); err != nil {
		return nil, err
	}
	return counts, nil
}

// walk builds the stream and calls f with the row of every memory access.
func walk(w Workload, seed, totalInsts, baseRow int64, f func(row int64)) error {
	g, err := New(w, seed, totalInsts, baseRow)
	if err != nil {
		return err
	}
	for r, ok := g.Next(); ok; r, ok = g.Next() {
		if r.Line >= 0 {
			f(r.Line / LinesPerRow)
		}
	}
	return nil
}

// countedBytes bounds the row counts EachRowCount keeps, over all
// streams: 16 MiB, where one stream at the default budget keeps at most a
// few hundred KiB (16 bytes a touched row). A stream that would overflow
// it clears the table first; one larger than the bound is not kept.
const countedBytes = 16 << 20

// RowCount is one row of a stream and the number of its accesses in it.
type RowCount struct{ Row, N int64 }

// streamKey is everything a stream is built from (see New).
type streamKey struct {
	w                         Workload
	seed, totalInsts, baseRow int64
}

// counted holds the row counts of the streams EachRowCount walked. A
// slice is never written once it is in the table and never leaves the
// package, so a reader iterates it outside the lock.
var counted struct {
	sync.Mutex
	rows  map[streamKey][]RowCount
	bytes int
}

// EachRowCount calls f once for every row the accesses of the stream
// New(w, seed, totalInsts, baseRow) fall in, in ascending row order, with
// the number of accesses in that row: the profile of the paper's page
// allocation. The mode columns of a figure profile the same streams, so
// EachRowCount keeps the counts of the streams it walked and replays
// them. Profile does not: it is the walk itself, measured.
func EachRowCount(w Workload, seed, totalInsts, baseRow int64, f func(row, n int64)) error {
	key := streamKey{w, seed, totalInsts, baseRow}
	counted.Lock()
	rows, ok := counted.rows[key]
	counted.Unlock()
	if !ok {
		var err error
		if rows, err = countRows(w, seed, totalInsts, baseRow); err != nil {
			return err
		}
		keepCounts(key, rows)
	}
	for _, rc := range rows {
		f(rc.Row, rc.N)
	}
	return nil
}

// countRows walks the stream and counts its accesses per row: one radix
// sort of the accessed rows, then one RowCount per run of equal rows.
func countRows(w Workload, seed, totalInsts, baseRow int64) ([]RowCount, error) {
	var all []uint64
	lo, hi := int64(-1), int64(-1)
	if err := walk(w, seed, totalInsts, baseRow, func(row int64) {
		all = append(all, uint64(row))
		if lo < 0 || row < lo {
			lo = row
		}
		hi = max(hi, row)
	}); err != nil {
		return nil, err
	}
	// Sort the rows' offsets from the lowest, whose width is the stream's
	// footprint, not its base row.
	for i := range all {
		all[i] -= uint64(lo)
	}
	all = radixSort(all, bits.Len64(uint64(hi-lo)))
	n := 0
	for i := range all {
		if i == 0 || all[i] != all[i-1] {
			n++
		}
	}
	rows := make([]RowCount, 0, n)
	for i, off := range all {
		if i == 0 || off != all[i-1] {
			rows = append(rows, RowCount{Row: lo + int64(off)})
		}
		rows[len(rows)-1].N++
	}
	return rows, nil
}

// radixSort sorts xs, whose values are below 1<<width, by their least
// significant 11-bit digit first, one counting pass per digit through a
// buffer as long as xs. It returns the sorted slice, which is xs or the
// buffer.
func radixSort(xs []uint64, width int) []uint64 {
	const digit = 11
	buf := make([]uint64, len(xs))
	for shift := 0; shift < width; shift += digit {
		var at [1<<digit + 1]int
		for _, x := range xs {
			at[x>>shift&(1<<digit-1)+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, x := range xs {
			d := x >> shift & (1<<digit - 1)
			buf[at[d]] = x
			at[d]++
		}
		xs, buf = buf, xs
	}
	return xs
}

// keepCounts adds a stream's row counts to the table, within
// countedBytes: the bytes counted are the slice's capacity.
func keepCounts(key streamKey, rows []RowCount) {
	n := 16 * cap(rows)
	if n > countedBytes {
		return
	}
	counted.Lock()
	defer counted.Unlock()
	if _, ok := counted.rows[key]; ok {
		return // another goroutine counted it too
	}
	if counted.rows == nil || counted.bytes+n > countedBytes {
		counted.rows, counted.bytes = make(map[streamKey][]RowCount), 0
	}
	counted.rows[key] = rows
	counted.bytes += n
}
