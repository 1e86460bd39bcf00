// MCR layouts: the bands of ganged rows in every sub-array, which the
// Generator classifies rows by. A simple mode [M/Kx/L%reg] is the
// single-band layout LayoutOf(mode). When capacity allows (paper Sec. 4.4,
// "Combination of 2x and 4x MCR"), a sub-array can host a 4x band for the
// hottest pages *and* a 2x band for warm pages, with the remainder as
// normal rows. Bands stack from the sense-amplifier end (highest local
// addresses), most aggressive first, so the fastest rows stay nearest the
// amplifiers.

package mcr

import (
	"fmt"
	"math/bits"
	"sort"
)

// Band is one region of a layout: a fraction of every sub-array ganged as
// Kx MCRs with M refreshes kept per window.
type Band struct {
	K      int     // 2 or 4
	M      int     // 1 <= M <= K, power of two
	Region float64 // fraction of the sub-array (multiple of 0.25)
}

// Layout is an ordered set of bands, largest K first (nearest the sense
// amplifiers). An empty layout is a conventional DRAM.
type Layout struct {
	Bands []Band
}

// NewLayout validates and normalizes a combined layout.
func NewLayout(bands ...Band) (Layout, error) {
	l := Layout{Bands: append([]Band(nil), bands...)}
	sort.Slice(l.Bands, func(i, j int) bool { return l.Bands[i].K > l.Bands[j].K })
	seen := map[int]bool{}
	total := 0.0
	for _, b := range l.Bands {
		m := Mode{K: b.K, M: b.M, Region: b.Region}
		if err := m.Validate(); err != nil {
			return Layout{}, err
		}
		if b.K == 1 {
			return Layout{}, fmt.Errorf("mcr: layout bands must gang rows (K >= 2)")
		}
		if seen[b.K] {
			return Layout{}, fmt.Errorf("mcr: duplicate %dx band", b.K)
		}
		seen[b.K] = true
		total += b.Region
	}
	if total > 1+1e-9 {
		return Layout{}, fmt.Errorf("mcr: layout regions sum to %g > 1", total)
	}
	return l, nil
}

// LayoutOf converts a simple mode into its single-band layout (empty for
// the off mode).
func LayoutOf(m Mode) Layout {
	if !m.Enabled() {
		return Layout{}
	}
	return Layout{Bands: []Band{{K: m.K, M: m.M, Region: m.Region}}}
}

// Enabled reports whether the layout gangs any rows.
func (l Layout) Enabled() bool { return len(l.Bands) > 0 }

// MaxK returns the largest band K (1 when disabled).
func (l Layout) MaxK() int {
	k := 1
	for _, b := range l.Bands {
		if b.K > k {
			k = b.K
		}
	}
	return k
}

// String renders e.g. "layout [4/4x/25%+2/2x/25%]".
func (l Layout) String() string {
	if !l.Enabled() {
		return "layout [off]"
	}
	s := "layout ["
	for i, b := range l.Bands {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%d/%dx/%d%%", b.M, b.K, int(b.Region*100+0.5))
	}
	return s + "]"
}

// lgOf returns log2 of a power of two.
func lgOf(k int) int { return bits.TrailingZeros(uint(k)) }
