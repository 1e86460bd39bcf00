package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/trace"
)

// rowMapDigest is the SHA-256 of every permutation
// TestAllocationPermutationsPinned builds. A change to it moves the
// physical rows that the Fig 12/13/15/16 sweeps and the combined-layout
// runs place hot data in, and with them their results.
const rowMapDigest = "0dd777f4f3d32b87d9ede09da979445068a805b5bd5bea805320595b0603d39c"

// TestAllocationPermutationsPinned hashes the row permutations
// buildAllocation produces for the paper's allocation sweeps: every
// single-core workload on [4/4x] at 25/50/75 % region and [2/2x/50%reg],
// at allocation ratios 10/20/30 % (the Fig 12/13/15/16 shape), plus the
// combined 4x+2x layout at two ratio pairs. Every row of every bank goes
// through RowMap.Map, so the digest covers the whole permutation.
func TestAllocationPermutationsPinned(t *testing.T) {
	const insts = 200_000
	h := sha256.New()
	moved := 0
	add := func(cfg Config) {
		t.Helper()
		dev, err := dram.New(cfg.DRAM)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := buildAllocation(cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		geom := cfg.DRAM.Geom
		buf := make([]byte, 4*geom.Rows)
		for rank := 0; rank < geom.Ranks; rank++ {
			for bank := 0; bank < geom.Banks; bank++ {
				a := core.Address{Rank: rank, Bank: bank}
				for row := 0; row < geom.Rows; row++ {
					a.Row = row
					to := rows.Map(a).Row
					if to != row {
						moved++
					}
					binary.LittleEndian.PutUint32(buf[4*row:], uint32(to))
				}
				h.Write(buf)
			}
		}
	}
	modes := []mcr.Mode{
		mcrtest.Mode(4, 4, 0.25),
		mcrtest.Mode(4, 4, 0.5),
		mcrtest.Mode(4, 4, 0.75),
		mcrtest.Mode(2, 2, 0.5),
	}
	for _, w := range trace.SingleCoreNames() {
		for _, mode := range modes {
			for _, ratio := range []float64{0.1, 0.2, 0.3} {
				cfg := DefaultConfig(w)
				cfg.InstsPerCore = insts
				cfg.DRAM = dram.DefaultConfig(mode)
				cfg.AllocRatio = ratio
				add(cfg)
			}
		}
	}
	for _, r := range [][2]float64{{0.05, 0.15}, {0.25, 0.25}} {
		cfg := DefaultConfig("comm2")
		cfg.InstsPerCore = insts
		cfg.DRAM.Layout = combinedLayout(t)
		cfg.AllocRatio4, cfg.AllocRatio2 = r[0], r[1]
		add(cfg)
	}
	if moved == 0 {
		t.Fatal("no configuration moved a row")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rowMapDigest {
		t.Fatalf("allocation permutations digest %s, want %s (%d rows moved)", got, rowMapDigest, moved)
	}
}
