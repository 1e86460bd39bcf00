package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sourceDraws is how far each check follows both streams: two full turns
// of the register, so every word has been fed back into the register once.
const sourceDraws = 2*rngLen + 1

// checkSource compares the source against math/rand's for one seed:
// Uint64 over sourceDraws draws, then Int63, then the rand.Rand methods
// the generator calls. The first source may seed its register; the second
// is built from the register the first one left in the table.
func checkSource(t *testing.T, seed int64) {
	t.Helper()
	first := newSource(seed)
	if !seedKept(seed) {
		t.Fatalf("seed %d: newSource kept no register", seed)
	}
	for pass, got := range []*source{first, newSource(seed)} {
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < sourceDraws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, source %d: Uint64 draw %d = %#x, math/rand gives %#x", seed, pass, i, g, w)
			}
		}
		for i := 0; i < 16; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, source %d: Int63 draw %d = %#x, math/rand gives %#x", seed, pass, i, g, w)
			}
		}
	}
	gr, wr := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
	for i := 0; i < 64; i++ {
		if g, w := gr.Float64(), wr.Float64(); g != w {
			t.Fatalf("seed %d: Float64 draw %d = %v, math/rand gives %v", seed, i, g, w)
		}
		if g, w := gr.Intn(1000), wr.Intn(1000); g != w {
			t.Fatalf("seed %d: Intn draw %d = %d, math/rand gives %d", seed, i, g, w)
		}
		if g, w := gr.ExpFloat64(), wr.ExpFloat64(); g != w {
			t.Fatalf("seed %d: ExpFloat64 draw %d = %v, math/rand gives %v", seed, i, g, w)
		}
	}
}

// benchmarkSeeds returns the generator seeds the six benchmark workloads
// use on seeds 1 and 7: sim's per-core seed (seed·1 000 003 + core·7 919)
// XOR the workload name's hash.
func benchmarkSeeds() []int64 {
	cores := [][]string{
		{"idle"}, {"tigr"}, {"stream"}, // idle_1c, membound_1c and guarded_1c, writedrain_1c
		{"comm1", "leslie", "stream", "tigr"}, // quad_mix
	}
	for _, name := range SingleCoreNames() { // sweep_fig11
		cores = append(cores, []string{name})
	}
	var seeds []int64
	for _, seed := range []int64{1, 7} {
		for _, names := range cores {
			for core, name := range names {
				seeds = append(seeds, (seed*1_000_003+int64(core)*7_919)^hashName(name))
			}
		}
	}
	return seeds
}

// TestSourceMatchesMathRand checks the source against math/rand on seeds
// that exercise the seed normalisation and on every seed the benchmark
// draws from.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, -3 * int32max, int32max - 1, int32max + 1,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	seeds = append(seeds, benchmarkSeeds()...)
	for _, seed := range seeds {
		checkSource(t, seed)
	}
}

// TestGeneratorDrawsMathRandsStream rebuilds a generator around
// math/rand's own source and checks the record streams agree.
func TestGeneratorDrawsMathRandsStream(t *testing.T) {
	for _, name := range []string{"comm2", "tigr", "idle"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(w, 7, 200_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := &Generator{w: w, rng: rand.New(rand.NewSource(7 ^ hashName(name))), insts: 200_000}
		want.streams = make([]stream, w.Streams)
		for i := range want.streams {
			want.streams[i] = stream{row: want.pickRow(), col: want.rng.Intn(LinesPerRow)}
		}
		for i := 0; ; i++ {
			g, okg := got.Next()
			r, okw := want.Next()
			if g != r || okg != okw {
				t.Fatalf("%s: record %d = %+v %v, math/rand's source gives %+v %v", name, i, g, okg, r, okw)
			}
			if !okg {
				break
			}
		}
	}
}

// seedKept reports whether the table holds seed's register.
func seedKept(seed int64) bool {
	seeded.Lock()
	defer seeded.Unlock()
	return seeded.regs[reduceSeed(seed)] != nil
}

// TestSeedMemoIsRaceFree builds sources on eight goroutines at once, for
// seeds they all share and for seeds each one has alone: 200 distinct
// seeds, more than the table keeps, so it is cleared while the others
// read it. Every source must draw math/rand's stream for its seed.
func TestSeedMemoIsRaceFree(t *testing.T) {
	const workers, perWorker = 8, 24
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for _, seed := range []int64{int64(i % 8), int64(1000 + w*perWorker + i)} {
					got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
					for d := 0; d < sourceDraws; d++ {
						if g, m := got.Uint64(), want.Uint64(); g != m {
							errs <- fmt.Errorf("worker %d, seed %d: Uint64 draw %d = %#x, math/rand gives %#x", w, seed, d, g, m)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzSource checks the source against math/rand on arbitrary seeds,
// seeded and from the table.
func FuzzSource(f *testing.F) {
	for _, seed := range []int64{0, -1, int32max, math.MinInt64, 89482311} {
		f.Add(seed)
	}
	f.Fuzz(checkSource)
}

// BenchmarkSeed measures one Seed of the source and of math/rand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("source", func(b *testing.B) {
		s := newSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
