// Address mapping: decoding a flat physical cache-line number into
// channel/rank/bank/row/column coordinates.

package controller

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// MappingPolicy selects how physical line numbers spread over the DRAM
// coordinates.
type MappingPolicy int

// Supported mapping policies.
const (
	// PageInterleave keeps a whole row's lines consecutive (column bits
	// lowest), then interleaves channel, bank, rank, row — the paper's
	// baseline policy (row:rank:bank:channel:column).
	PageInterleave MappingPolicy = iota
	// PermutationInterleave additionally XORs the bank index with low row
	// bits (Zhang et al., the paper's citation [33]) to break row-buffer
	// conflict patterns.
	PermutationInterleave
	// BitReversal reverses the row-index bits (Shao & Davis, the paper's
	// citation [26]): power-of-two-strided streams that would hammer one
	// row region spread across distant rows instead.
	BitReversal
)

// String names the mapping policy.
func (p MappingPolicy) String() string {
	switch p {
	case PageInterleave:
		return "page-interleave"
	case PermutationInterleave:
		return "permutation-interleave"
	case BitReversal:
		return "bit-reversal"
	}
	return fmt.Sprintf("MappingPolicy(%d)", int(p))
}

// AddressMapper decodes line numbers for one geometry.
type AddressMapper struct {
	geom                                         core.Geometry
	policy                                       MappingPolicy
	colBits, chBits, bankBits, rankBits, rowBits int
}

// NewAddressMapper builds a mapper.
func NewAddressMapper(geom core.Geometry, policy MappingPolicy) (*AddressMapper, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	// Validate established every dimension is a positive power of two, so
	// the uint conversions below cannot wrap.
	return &AddressMapper{
		geom:     geom,
		policy:   policy,
		colBits:  bits.TrailingZeros(uint(geom.Columns)),
		chBits:   bits.TrailingZeros(uint(geom.Channels)),
		bankBits: bits.TrailingZeros(uint(geom.Banks)),
		rankBits: bits.TrailingZeros(uint(geom.Ranks)),
		rowBits:  bits.TrailingZeros(uint(geom.Rows)),
	}, nil
}

// TotalLines returns the number of cache lines the mapper covers.
func (m *AddressMapper) TotalLines() int64 {
	return m.geom.TotalBytes() / core.CacheLineBytes
}

// Decode splits a line number into DRAM coordinates. Lines outside the
// physical space wrap (the synthetic traces are sized to fit, wrapping is a
// safety net, not an error path).
func (m *AddressMapper) Decode(line int64) core.Address {
	if line < 0 {
		line = -line
	}
	line %= m.TotalLines()
	var a core.Address
	a.Column = int(line & int64(m.geom.Columns-1))
	line >>= m.colBits
	a.Channel = int(line & int64(m.geom.Channels-1))
	line >>= m.chBits
	a.Bank = int(line & int64(m.geom.Banks-1))
	line >>= m.bankBits
	a.Rank = int(line & int64(m.geom.Ranks-1))
	line >>= m.rankBits
	a.Row = int(line & int64(m.geom.Rows-1))
	switch m.policy {
	case PageInterleave:
		// identity: the straight bit split already is page interleaving
	case PermutationInterleave:
		a.Bank ^= a.Row & (m.geom.Banks - 1)
	case BitReversal:
		a.Row = reverseBits(a.Row, m.rowBits)
	}
	return a
}

// reverseBits reverses the low n bits of v.
func reverseBits(v, n int) int {
	out := 0
	for i := 0; i < n; i++ {
		out = out<<1 | v>>i&1
	}
	return out
}
