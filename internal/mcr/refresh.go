// Refresh-counter wiring (paper Sec. 4.3, Fig 8); the Refresh-Skipping
// schedule (Fig 9) it enables is LayoutScheduler's.
//
// A DRAM chip walks an internal counter across all rows once per 64 ms
// retention window. With the straight "K to K" wiring the clone rows of an
// MCR sit at consecutive counter positions, so the MCR's K refreshes bunch
// together and the worst-case interval barely improves. With the paper's
// "K to N-1-K" wiring (counter bit j drives row-address bit N-1-j, i.e. the
// row LSB changes last) the K refreshes spread uniformly, giving a 64/K ms
// worst-case interval with no extra circuitry.

package mcr

import (
	"fmt"
	"math/bits"
)

// Wiring selects how refresh-counter bits map to row-address bits.
type Wiring int

// Wiring methods of paper Fig 8.
const (
	// KtoK wires counter bit j straight to row-address bit j (method 1).
	KtoK Wiring = iota
	// KtoN1K wires counter bit j to row-address bit N-1-j (method 2,
	// the paper's choice): the generated row address is the bit-reversed
	// counter, so clone rows are refreshed at uniform spacing.
	KtoN1K
)

// String names the wiring method.
func (w Wiring) String() string {
	switch w {
	case KtoK:
		return "K-to-K"
	case KtoN1K:
		return "K-to-N-1-K"
	}
	return fmt.Sprintf("Wiring(%d)", int(w))
}

// reverseBits reverses the low n bits of v.
func reverseBits(v, n int) int {
	return int(bits.Reverse64(uint64(v)) >> (64 - n))
}

// RefreshRowAddress returns the n-bit row address generated for counter
// value c under wiring w.
func RefreshRowAddress(w Wiring, c, n int) int {
	c &= 1<<n - 1
	if w == KtoN1K {
		return reverseBits(c, n)
	}
	return c
}

// MaxRefreshIntervalMs returns the worst-case interval, in milliseconds,
// between successive refreshes of the same Kx MCR when an n-bit counter
// walks a windowMs retention window under wiring w. It reproduces paper
// Fig 8: for n=3, windowMs=64 the K-to-K wiring gives 56 ms (2x) and 40 ms
// (4x) while K-to-N-1-K gives 32 ms and 16 ms.
func MaxRefreshIntervalMs(w Wiring, n, k int, windowMs float64) float64 {
	if k <= 1 {
		return windowMs
	}
	steps := 1 << n
	stepMs := windowMs / float64(steps)
	lg := bits.TrailingZeros(uint(k))
	// Find, for the MCR containing row 0 (all MCRs behave identically by
	// symmetry of the wiring), the counter positions that refresh any of
	// its clones, then the largest wrap-around gap.
	var hits []int
	for c := 0; c < steps; c++ {
		row := RefreshRowAddress(w, c, n)
		if row>>lg == 0 {
			hits = append(hits, c)
		}
	}
	maxGap := 0
	for i, c := range hits {
		next := hits[(i+1)%len(hits)]
		gap := next - c
		if gap <= 0 {
			gap += steps
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	return float64(maxGap) * stepMs
}
