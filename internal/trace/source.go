// The generator's random source: math/rand's additive lagged Fibonacci
// generator, drawing the same stream from the same seed, with a cheaper
// Seed.
//
// math/rand seeds its 607-word register from the Park–Miller sequence
// x_{e+1} = 48271·x_e mod (2³¹−1): word i packs x_{21+3i}, x_{22+3i} and
// x_{23+3i} and XORs a fixed table into them. It computes those 1 841
// values as one serial chain of dependent steps. Here three chains start
// at x_21, x_22 and x_23 and each steps by 48271³ mod (2³¹−1), so the three
// values of a word do not wait on each other. The register, and hence
// every draw, is bit for bit math/rand's.
//
// A seeded register depends on the reduced seed alone, and a figure plan
// builds the same few generators for many cells, so newSource keeps the
// registers it has seeded: a repeated seed copies its register instead of
// computing it again.

package trace

import (
	"math/rand"
	"sync"
)

const (
	rngLen   = 607 // register words
	rngTap   = 273 // lag of the second tap
	int32max = 1<<31 - 1
	// seedMul is the Park–Miller multiplier math/rand seeds with.
	seedMul = 48271
)

// Chain constants: a21..a23 start the three chains from the seed, a3
// steps each chain three places along the Park–Miller sequence.
var (
	a3  = powMod(seedMul, 3)
	a21 = powMod(seedMul, 21)
	a22 = powMod(seedMul, 22)
	a23 = powMod(seedMul, 23)
)

// cooked is the fixed table math/rand XORs into a seeded register. It is
// not copied from math/rand: init reads it back out of a math/rand source.
var cooked [rngLen]int64

func init() {
	ref := rand.NewSource(1).(rand.Source64)
	// The first rngLen draws write every register slot once, so they are
	// the register after rngLen steps. Undo the steps, newest first, to get
	// the register Seed(1) left.
	var reg [rngLen]int64
	for k := 1; k <= rngLen; k++ {
		reg[feedAt(k)] = int64(ref.Uint64())
	}
	for k := rngLen; k >= 1; k-- {
		reg[feedAt(k)] -= reg[tapAt(k)]
	}
	// cooked is still zero here, so Seed writes the seed part alone.
	var s source
	s.Seed(1)
	for i := range cooked {
		cooked[i] = reg[i] ^ s.vec[i]
	}
}

// tapAt and feedAt are the register slots the k-th draw after Seed reads
// and writes (k ≥ 1).
func tapAt(k int) int { return (rngLen - k%rngLen) % rngLen }
func feedAt(k int) int {
	return ((rngLen-rngTap-k)%rngLen + rngLen) % rngLen
}

// source implements rand.Source64 with math/rand's register layout, so it
// is as large as the source it replaces.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

var _ rand.Source64 = (*source)(nil)

// seededCap bounds the registers newSource keeps: 128 of 4 856 bytes,
// about 620 KiB. A full table is cleared, not evicted from: a plan reuses
// a handful of seeds, so the bound only guards against a caller that draws
// a fresh seed every time.
const seededCap = 128

// seeded holds the register Seed left for each reduced seed. A register
// is never written once it is in the table, so a reader copies it outside
// the lock. The lock is taken because the run-plan pool builds generators
// on several goroutines.
var seeded struct {
	sync.Mutex
	regs map[uint64]*[rngLen]int64
}

// newSource returns a source seeded like rand.NewSource(seed).
func newSource(seed int64) *source {
	s := &source{feed: rngLen - rngTap}
	x := reduceSeed(seed)
	seeded.Lock()
	reg := seeded.regs[x]
	seeded.Unlock()
	if reg != nil {
		s.vec = *reg
		return s
	}
	s.fill(x)
	reg = new([rngLen]int64)
	*reg = s.vec
	seeded.Lock()
	if seeded.regs == nil || len(seeded.regs) >= seededCap {
		seeded.regs = make(map[uint64]*[rngLen]int64, seededCap)
	}
	seeded.regs[x] = reg
	seeded.Unlock()
	return s
}

// Seed initialises the register exactly as math/rand does for the same
// seed.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	s.fill(reduceSeed(seed))
}

// reduceSeed normalises a seed as math/rand does: it is reduced mod
// 2³¹−1, negatives wrap, and 0 becomes 89482311. Seeds with one reduced
// value seed one register.
func reduceSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// fill writes the register of the reduced seed x.
func (s *source) fill(x uint64) {
	a, b, c := mulMod(x, a21), mulMod(x, a22), mulMod(x, a23)
	for i := range s.vec {
		s.vec[i] = int64(a<<40^b<<20^c) ^ cooked[i]
		a, b, c = mulMod(a, a3), mulMod(b, a3), mulMod(c, a3)
	}
}

// Uint64 advances the register one step and returns the new feed word.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns Uint64 with the top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// mulMod returns x·y mod 2³¹−1 for x, y < 2³¹−1: the product fits in 62
// bits, and 2³¹ ≡ 1 folds its high half onto its low half.
func mulMod(x, y uint64) uint64 {
	p := x * y
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// powMod returns base^e mod 2³¹−1.
func powMod(base uint64, e int) uint64 {
	r := uint64(1)
	for ; e > 0; e-- {
		r = mulMod(r, base)
	}
	return r
}
