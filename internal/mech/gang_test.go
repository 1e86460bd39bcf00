package mech

import (
	"testing"

	"repro/internal/mcr/mcrtest"
)

// TestCloneRowsAreTheGangKBlock pins what the integrity checker relies on
// to walk a gang without a slice: on every backend the rows that latch the
// same data as a row are exactly the other rows of its GangK block,
// row &^ (GangK-1) … +GangK-1 — quarantined rows and CLR pairs coupled at
// run time included.
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
			lo := row &^ (k - 1)
			for o := max(row-16, 0); o < row+16; o++ {
				if o == row {
					continue
				}
				if got, want := m.SameGang(row, o), o >= lo && o < lo+k; got != want {
					t.Fatalf("%s: SameGang(%d, %d) = %v, but GangK(%d) = %d puts its block at %d…%d",
						name, row, o, got, row, k, lo, lo+k-1)
				}
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
