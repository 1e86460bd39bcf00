package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/controller"
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

// nestedAllocation is the profiling pass counted the plain way: each
// core's trace.Profile decoded row by row into counts keyed by bank and
// row, summed where rows meet, handed to alloc.ProfileBased (or, for a
// combined layout, to FromProfileLayout).
func nestedAllocation(t *testing.T, cfg Config, dev *dram.Device) *alloc.RowMap {
	t.Helper()
	geom := cfg.DRAM.Geom
	mapper, err := controller.NewAddressMapper(geom, cfg.Ctrl.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]map[int]int64{}
	for i, name := range cfg.Workloads {
		w, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := trace.Profile(w, coreSeed(cfg.Seed, i), cfg.InstsPerCore, coreBaseRow(cfg, geom, i))
		if err != nil {
			t.Fatal(err)
		}
		for row, n := range prof {
			a := mapper.Decode(row * trace.LinesPerRow)
			bid := a.BankID(geom)
			if counts[bid] == nil {
				counts[bid] = map[int]int64{}
			}
			counts[bid][a.Row] += n
		}
	}
	var m *alloc.RowMap
	if cfg.AllocRatio4 > 0 || cfg.AllocRatio2 > 0 {
		prof := make(alloc.Profile, geom.Channels*geom.Ranks*geom.Banks)
		for bid, rows := range counts {
			for row, n := range rows {
				prof[bid] = append(prof[bid], alloc.Heat{Row: row, Count: n})
			}
		}
		m, err = alloc.FromProfileLayout(geom, dev.Generator(), prof, cfg.AllocRatio4, cfg.AllocRatio2)
	} else {
		m, err = alloc.ProfileBased(geom, dev.Generator(), counts, cfg.AllocRatio)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAllocationMatchesNestedCounts: buildAllocation's slice-counted
// profile builds the row map that nested count maps build, also where
// several accesses' rows are one bank row: rows of wider than
// trace.LinesPerRow columns, cores sharing a footprint, and a mapping
// that XORs the bank.
func TestAllocationMatchesNestedCounts(t *testing.T) {
	wide := core.Geometry{Channels: 1, Ranks: 2, Banks: 8, Rows: 16384, Columns: 256, SubarrayLog: 9}
	narrow := core.Geometry{Channels: 2, Ranks: 2, Banks: 8, Rows: 32768, Columns: 64, SubarrayLog: 9}
	for _, tc := range []struct {
		name string
		with func(*Config)
	}{
		{"256 columns", func(c *Config) { c.DRAM.Geom = wide }},
		{"256 columns, permutation interleave", func(c *Config) {
			c.DRAM.Geom = wide
			c.Ctrl.Mapping = controller.PermutationInterleave
		}},
		{"64 columns, two channels", func(c *Config) { c.DRAM.Geom = narrow }},
		{"256 columns, combined layout", func(c *Config) {
			c.DRAM.Geom = wide
			c.DRAM.Layout = combinedLayout(t)
			c.AllocRatio, c.AllocRatio4, c.AllocRatio2 = 0, 0.1, 0.2
		}},
		{"quad, shared footprint", func(c *Config) {
			c.Workloads = []string{"comm1", "leslie", "stream", "tigr"}
			c.DRAM.Geom = core.MultiCoreGeometry()
			c.SharedFootprint = true
		}},
		{"quad, 256 columns", func(c *Config) {
			c.Workloads = []string{"comm1", "leslie", "stream", "tigr"}
			c.DRAM.Geom = wide
		}},
	} {
		cfg := DefaultConfig("comm2")
		cfg.InstsPerCore = 100_000
		cfg.DRAM = dram.DefaultConfig(mcrtest.Mode(4, 4, 0.5))
		cfg.AllocRatio = 0.2
		tc.with(&cfg)
		dev, err := dram.New(cfg.DRAM)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := buildAllocation(cfg, dev)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if reflect.DeepEqual(got, alloc.Identity(cfg.DRAM.Geom)) {
			t.Errorf("%s: the allocation moved no row", tc.name)
		}
		if want := nestedAllocation(t, cfg, dev); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the slice-counted profile built another row map than nested counts", tc.name)
		}
	}
}
