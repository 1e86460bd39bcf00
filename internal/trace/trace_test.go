package trace

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestCatalogueComplete(t *testing.T) {
	if got := len(Workloads()); got != 18 {
		t.Fatalf("Table 5 has 18 workloads, catalogue has %d", got)
	}
	if got := len(SingleCoreNames()); got != 16 {
		t.Fatalf("single-core set must exclude the MT pair, got %d", got)
	}
	for _, n := range SingleCoreNames() {
		if n == "MT-fluid" || n == "MT-canneal" {
			t.Fatalf("MT workload %s in the single-core set", n)
		}
	}
	for _, w := range Workloads() {
		if err := w.Validate(); err != nil {
			t.Errorf("catalogue entry invalid: %v", err)
		}
	}
}

func TestSuites(t *testing.T) {
	total := 0
	for _, s := range SuiteNames() {
		ws := BySuite(s)
		if len(ws) == 0 {
			t.Fatalf("suite %s empty", s)
		}
		total += len(ws)
		for _, w := range ws {
			if w.Suite != s {
				t.Fatalf("workload %s filed under the wrong suite", w.Name)
			}
		}
	}
	if total != 16 {
		t.Fatalf("suites must partition the 16 single-core workloads, got %d", total)
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("tigr")
	if err != nil || w.Name != "tigr" {
		t.Fatalf("ByName(tigr): %v %v", w, err)
	}
	_, err = ByName("nope")
	if err == nil {
		t.Fatal("unknown workloads must error")
	}
	if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "tigr") {
		t.Errorf("error must name the input and list the catalogue: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	good, _ := ByName("comm1")
	cases := []func(*Workload){
		func(w *Workload) { w.Name = "" },
		func(w *Workload) { w.MPKI = 0 },
		func(w *Workload) { w.ReadFrac = 1.5 },
		func(w *Workload) { w.RowHit = 1 },
		func(w *Workload) { w.Burst = -0.1 },
		func(w *Workload) { w.FootprintRows = 0 },
		func(w *Workload) { w.HotFrac = 0 },
		func(w *Workload) { w.HotMass = 2 },
		func(w *Workload) { w.Streams = 0 },
		// The hot set rounds up to the whole footprint: no cold rows.
		func(w *Workload) { w.FootprintRows, w.HotFrac, w.HotMass = 1, 0.5, 0.5 },
		func(w *Workload) { w.HotFrac, w.HotMass = 1, 0.99 },
		// NaN and +Inf MPKI passed a `<= 0` test. More than one access
		// per instruction makes the mean gap negative, and Streams sizes
		// the stream table.
		func(w *Workload) { w.MPKI = math.NaN() },
		func(w *Workload) { w.MPKI = math.Inf(1) },
		func(w *Workload) { w.MPKI = 1001 },
		func(w *Workload) { w.Streams = 1 << 40 },
	}
	for i, mut := range cases {
		w := good
		mut(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: expected a validation error", i)
		}
	}
}

// A hot set covering the whole footprint is valid when every jump is hot,
// and the generator then never draws a cold row.
func TestAllHotFootprint(t *testing.T) {
	w, _ := ByName("comm1")
	for _, shape := range []struct {
		rows    int
		hotFrac float64
	}{{1, 0.5}, {1, 1}, {40, 1}} {
		w.FootprintRows, w.HotFrac, w.HotMass = shape.rows, shape.hotFrac, 1
		g, err := New(w, 1, 50_000, 0)
		if err != nil {
			t.Fatalf("%d rows, HotFrac %g: %v", shape.rows, shape.hotFrac, err)
		}
		for {
			r, ok := g.Next()
			if !ok {
				break
			}
			if r.Line >= int64(shape.rows)*LinesPerRow {
				t.Fatalf("%d rows: line %d outside the footprint", shape.rows, r.Line)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	w, _ := ByName("comm2")
	a, err := New(w, 7, 100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(w, 7, 100_000, 0)
	for {
		ra, oka := a.Next()
		rb, okb := b.Next()
		if oka != okb || ra != rb {
			t.Fatal("same seed must give identical streams")
		}
		if !oka {
			break
		}
	}
	// Different seed diverges.
	c, _ := New(w, 8, 100_000, 0)
	diverged := false
	for i := 0; i < 100; i++ {
		ra, _ := a2(t, w, 7).Next()
		rc, ok := c.Next()
		if !ok {
			break
		}
		if ra != rc {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds must diverge")
	}
}

func a2(t *testing.T, w Workload, seed int64) *Generator {
	t.Helper()
	g, err := New(w, seed, 100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInstructionBudgetExact(t *testing.T) {
	w, _ := ByName("black")
	const budget = 50_000
	g, err := New(w, 1, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	var insts int64
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		insts += int64(r.Gap)
		if r.Line >= 0 {
			insts++
		}
	}
	if insts != budget {
		t.Fatalf("stream carries %d instructions, want %d", insts, budget)
	}
}

func TestMPKIApproximatelyHonored(t *testing.T) {
	for _, name := range []string{"tigr", "comm1", "fluid"} {
		w, _ := ByName(name)
		g, err := New(w, 3, 2_000_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		var accesses int
		for {
			r, ok := g.Next()
			if !ok {
				break
			}
			if r.Line >= 0 {
				accesses++
			}
		}
		got := float64(accesses) / 2000.0 // per kilo-instruction
		if math.Abs(got-w.MPKI)/w.MPKI > 0.15 {
			t.Errorf("%s: measured MPKI %.1f, want ~%.1f", name, got, w.MPKI)
		}
	}
}

func TestReadFractionApproximatelyHonored(t *testing.T) {
	w, _ := ByName("libq")
	g, _ := New(w, 5, 1_000_000, 0)
	var reads, total float64
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if r.Line < 0 {
			continue
		}
		total++
		if r.Kind == core.OpRead {
			reads++
		}
	}
	if math.Abs(reads/total-w.ReadFrac) > 0.03 {
		t.Fatalf("read fraction %.3f, want ~%.2f", reads/total, w.ReadFrac)
	}
}

func TestFootprintRespected(t *testing.T) {
	w, _ := ByName("swapt")
	g, _ := New(w, 9, 1_000_000, 1000)
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if r.Line < 0 {
			continue
		}
		row := r.Line / LinesPerRow
		if row < 1000 || row >= 1000+int64(w.FootprintRows) {
			t.Fatalf("row %d outside the footprint [1000, %d)", row, 1000+int64(w.FootprintRows))
		}
	}
}

// TestComm2HotSkew pins the paper's footnote 9: the hottest 10% of comm2's
// rows receive ~88% of its accesses.
func TestComm2HotSkew(t *testing.T) {
	w, _ := ByName("comm2")
	counts, err := Profile(w, 1, 2_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows []int64
	var total int64
	for _, c := range counts {
		total += c
	}
	for _, c := range counts {
		rows = append(rows, c)
	}
	// Top 10% of touched rows by count.
	slices.Sort(rows)
	slices.Reverse(rows)
	top := rows[:len(rows)/10]
	var hot int64
	for _, c := range top {
		hot += c
	}
	frac := float64(hot) / float64(total)
	if frac < 0.80 || frac > 0.95 {
		t.Fatalf("comm2 hot mass = %.3f, want ~0.88", frac)
	}
}

// TestRowLocalityOrdering: the BIOBENCH workloads must show much lower
// row-stream reuse than the streaming workloads — the property the paper's
// sensitivity results rest on.
func TestRowLocalityOrdering(t *testing.T) {
	reuse := func(name string) float64 {
		w, _ := ByName(name)
		g, _ := New(w, 2, 500_000, 0)
		var same, total float64
		lastRow := map[int]int64{}
		i := 0
		for {
			r, ok := g.Next()
			if !ok {
				break
			}
			if r.Line < 0 {
				continue
			}
			row := r.Line / LinesPerRow
			s := i % w.Streams
			if lastRow[s] == row {
				same++
			}
			lastRow[s] = row
			total++
			i++
		}
		return same / total
	}
	if reuse("tigr") >= reuse("stream") {
		t.Fatal("tigr must have worse row locality than stream")
	}
	if reuse("mummer") >= reuse("libq") {
		t.Fatal("mummer must have worse row locality than libq")
	}
}

func TestNewRejects(t *testing.T) {
	w, _ := ByName("comm1")
	if _, err := New(w, 1, 0, 0); err == nil {
		t.Fatal("zero budget must be rejected")
	}
	for _, base := range []int64{-1, -70_000} {
		if _, err := New(w, 1, 1000, base); err == nil || !strings.Contains(err.Error(), "base row") {
			t.Errorf("New with base row %d: err = %v, want a base-row error", base, err)
		}
		if _, err := Profile(w, 1, 1000, base); err == nil || !strings.Contains(err.Error(), "base row") {
			t.Errorf("Profile with base row %d: err = %v, want a base-row error", base, err)
		}
	}
	w.MPKI = -1
	if _, err := New(w, 1, 1000, 0); err == nil {
		t.Fatal("invalid workload must be rejected")
	}
}

func TestProfileMatchesGeneratorRows(t *testing.T) {
	w, _ := ByName("ferret")
	counts, err := Profile(w, 11, 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := New(w, 11, 200_000, 0)
	replay := map[int64]int64{}
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if r.Line >= 0 {
			replay[r.Line/LinesPerRow]++
		}
	}
	if len(replay) != len(counts) {
		t.Fatalf("profile rows %d != replay rows %d", len(counts), len(replay))
	}
	for row, n := range replay {
		if counts[row] != n {
			t.Fatalf("row %d: profile %d, replay %d", row, counts[row], n)
		}
	}
}

// The generator's determinism contract (see the package comment in
// generator.go) requires the workload name to be folded into the seed, so
// two workloads sharing a base seed still draw distinct streams.
func TestWorkloadNameSeedsDiverge(t *testing.T) {
	wa, err := ByName("comm2")
	if err != nil {
		t.Fatal(err)
	}
	wb := wa
	wb.Name = "comm2-renamed"
	a, err := New(wa, 7, 100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(wb, 7, 100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ra, oka := a.Next()
		rb, okb := b.Next()
		if !oka || !okb {
			break
		}
		if ra != rb {
			return
		}
	}
	t.Fatal("workloads differing only by name must draw distinct streams from the same base seed")
}

// Profile must be as repeatable as the stream it summarizes: equal inputs
// give equal per-row counts.
func TestProfileDeterministic(t *testing.T) {
	w, err := ByName("comm2")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Profile(w, 7, 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Profile(w, 7, 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("profile row counts differ: %d vs %d rows", len(a), len(b))
	}
	for row, n := range a {
		if b[row] != n {
			t.Fatalf("row %d: %d vs %d accesses", row, n, b[row])
		}
	}
}

// TestEachRowCountCountsTheWalk: EachRowCount gives Profile's counts, each
// row once and in ascending order, whether it walks the stream or replays
// the counts it kept, also when four goroutines ask for one stream at
// once, and an invalid stream is an error either time.
func TestEachRowCountCountsTheWalk(t *testing.T) {
	w, err := ByName("tigr")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Profile(w, 5, 100_000, 64)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		errs := make(chan error, 4)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got []RowCount
				if err := EachRowCount(w, 5, 100_000, 64, func(row, n int64) { got = append(got, RowCount{row, n}) }); err != nil {
					errs <- err
					return
				}
				ok := len(got) == len(want)
				for j, rc := range got {
					ok = ok && want[rc.Row] == rc.N && (j == 0 || got[j-1].Row < rc.Row)
				}
				if !ok {
					errs <- fmt.Errorf("pass %d, goroutine %d: EachRowCount gave %d rows, Profile %d, or other counts, or another order", pass, i, len(got), len(want))
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		if err := EachRowCount(w, 5, 0, 64, func(int64, int64) {}); err == nil {
			t.Fatal("a zero budget must be refused")
		}
	}
}

// TestRowCountsStayWithinTheirBound: the kept counts never exceed
// countedBytes, a full table is cleared for the next stream, and a
// stream larger than the bound is not kept.
func TestRowCountsStayWithinTheirBound(t *testing.T) {
	half := make([]RowCount, countedBytes/16/2+1)
	for i := 0; i < 3; i++ {
		key := streamKey{seed: int64(-1 - i)}
		keepCounts(key, half)
		counted.Lock()
		_, kept := counted.rows[key]
		bytes := counted.bytes
		counted.Unlock()
		if !kept || bytes > countedBytes {
			t.Fatalf("after stream %d (kept %v) the table holds %d bytes of %d", i, kept, bytes, countedBytes)
		}
	}
	keepCounts(streamKey{seed: -9}, make([]RowCount, countedBytes/16+1))
	counted.Lock()
	_, kept := counted.rows[streamKey{seed: -9}]
	counted.Unlock()
	if kept {
		t.Fatal("a stream larger than the bound was kept")
	}
}
