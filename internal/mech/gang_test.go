package mech

import (
	"slices"
	"testing"

	"repro/internal/mcr/mcrtest"
)

// TestCloneRowsAreTheGangKBlock pins what the integrity checker relies on
// to walk a gang without a slice: on every backend the wordlines that fire
// with a row are the GangK(row) adjacent rows from row &^ (GangK-1) —
// quarantined rows and CLR pairs coupled at run time included.
func TestCloneRowsAreTheGangKBlock(t *testing.T) {
	mcrCfg := baseConfig()
	mcrCfg.Mode = mcrtest.Mode(4, 4, 0.5)
	cfgs := map[string]Config{"off": baseConfig(), "mcr": mcrCfg}
	for name, set := range map[string]func(*Config){"tl": setTL, "nuat": setNUAT, "crow": setCROW, "clr": setCLR} {
		c := baseConfig()
		set(&c)
		cfgs[name] = c
	}
	for name, cfg := range cfgs {
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Heat a few rows so CLR couples their pairs, and demote a gang.
		for i := 0; i < 16; i++ {
			for _, row := range []int{6, 7, 301, 1030} {
				m.OnActivate(row, int64(i))
			}
		}
		m.Quarantine(510)
		ganged := 0
		for row := 0; row < 2048; row++ {
			k := m.GangK(row)
			want := make([]int, k)
			for i := range want {
				want[i] = row&^(k-1) + i
			}
			if got := m.CloneRows(row); !slices.Equal(got, want) {
				t.Fatalf("%s: row %d fires %v, GangK %d says %v", name, row, got, k, want)
			}
			if k > 1 {
				ganged++
			}
		}
		if (name == "mcr" || name == "clr") && ganged == 0 {
			t.Errorf("%s: no row of the first 2048 is ganged: the case checks nothing", name)
		}
	}
}
