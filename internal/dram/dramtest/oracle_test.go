package dramtest_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/dram/dramtest"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/mech"
	"repro/internal/timing"
)

// recorder is the observer an oracle replaces: it keeps what it is passed.
type recorder []dram.Command

func (r *recorder) Observe(c dram.Command) { *r = append(*r, c) }

// newDevice builds a device of cfg with an oracle attached, passing on to
// a recorder.
func newDevice(t *testing.T, cfg dram.Config) (*dram.Device, *dramtest.Oracle, *recorder) {
	t.Helper()
	d, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	return d, dramtest.Attach(d, rec), rec
}

// Two banks of rank 0 and one of rank 1, on the single-core geometry.
var (
	a     = core.Address{Row: 100}
	b     = core.Address{Bank: 1, Row: 9}
	other = core.Address{Rank: 1, Row: 2}
)

// TestOracleHoldsEachGap issues each timed rule's second command at its
// gate, which the oracle must accept, and one cycle before it, which it
// must report by the rule's name: the bank table (tRCD, tRAS, tRP, tRTP,
// tWR), the rank table (tRRD, tFAW, tWTR, tRFC) and the channel table
// (tCCD, the data bus with its rank switch). The device issues whatever it
// is asked, so the early commands reach the oracle as issued.
func TestOracleHoldsEachGap(t *testing.T) {
	for _, tc := range []struct {
		rule   string
		script func(d *dram.Device, p timing.Params, early int64)
	}{
		{"tRCD", func(d *dram.Device, p timing.Params, early int64) {
			d.Activate(a, 0)
			d.Read(a, int64(p.TRCD)-early)
		}},
		{"tRAS", func(d *dram.Device, p timing.Params, early int64) {
			d.Activate(a, 0)
			d.Precharge(a, int64(p.TRAS)-early)
		}},
		{"tRP", func(d *dram.Device, p timing.Params, early int64) {
			d.Activate(a, 0)
			d.Precharge(a, int64(p.TRAS))
			d.Activate(a, int64(p.TRAS+p.TRP)-early)
		}},
		{"tRTP", func(d *dram.Device, p timing.Params, early int64) {
			d.Activate(a, 0)
			d.Read(a, int64(p.TRAS))
			d.Precharge(a, int64(p.TRAS+p.TRTP)-early)
		}},
		{"tWR", func(d *dram.Device, p timing.Params, early int64) {
			d.Activate(a, 0)
			end := d.Write(a, int64(p.TRCD))
			d.Precharge(a, end+int64(p.TWR)-early)
		}},
		{"tRRD", func(d *dram.Device, p timing.Params, early int64) {
			d.Activate(a, 0)
			d.Activate(b, int64(p.TRRD)-early)
		}},
		{"tFAW", func(d *dram.Device, p timing.Params, early int64) {
			for bank := 0; bank < 4; bank++ {
				d.Activate(core.Address{Bank: bank}, int64(bank*p.TRRD))
			}
			d.Activate(core.Address{Bank: 4}, int64(p.TFAW)-early)
		}},
		{"tWTR", func(d *dram.Device, p timing.Params, early int64) {
			d.Activate(a, 0)
			d.Activate(b, int64(p.TRRD))
			end := d.Write(a, int64(p.TRCD))
			d.Read(b, end+int64(p.TWTR)-early)
		}},
		{"tRFC", func(d *dram.Device, p timing.Params, early int64) {
			d.Refresh(0, 0, 0, 0)
			d.Activate(a, int64(p.TRFC)-early)
		}},
		{"tCCD", func(d *dram.Device, p timing.Params, early int64) {
			// A read on the other rank after a write: the write's burst and
			// the rank switch leave the bus free first, so tCCD binds.
			d.Activate(a, 0)
			d.Activate(other, 0)
			wr := int64(p.TRCD)
			d.Write(a, wr)
			d.Read(other, wr+int64(p.TCCD)-early)
		}},
		{"the data bus", func(d *dram.Device, p timing.Params, early int64) {
			// Two reads on two ranks: the second burst waits for the first
			// and the rank switch, later than tCCD.
			d.Activate(a, 0)
			d.Activate(other, 0)
			rd := int64(p.TRCD)
			d.Read(a, rd)
			d.Read(other, rd+int64(p.TBURST+p.TRTRS)-early)
		}},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			for _, early := range []int64{0, 1} {
				d, o, _ := newDevice(t, dram.DefaultConfig(mcr.Off()))
				tc.script(d, d.Timings().Normal, early)
				err := o.Err()
				if early == 0 && err != nil {
					t.Fatalf("at the gate: %v", err)
				}
				if early == 1 && (err == nil || !strings.Contains(err.Error(), tc.rule+" needs")) {
					t.Fatalf("one cycle early: want a %s finding, got %v", tc.rule, err)
				}
			}
		})
	}
}

// TestOracleHoldsBankState reports each command whose bank is in the wrong
// state for it.
func TestOracleHoldsBankState(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		script     func(d *dram.Device)
	}{
		{"ACT to an open bank", "ACT to bank 0 row 100 at cycle 1000: the bank has row 100 open", func(d *dram.Device) {
			d.Activate(a, 0)
			d.Activate(a, 1000)
		}},
		{"RD to a closed bank", "RD to bank 0 row 100 at cycle 1000: the bank is closed", func(d *dram.Device) {
			d.Read(a, 1000)
		}},
		{"WR to another row", "WR to bank 0 row 101 at cycle 1000: the bank has row 100 open", func(d *dram.Device) {
			d.Activate(a, 0)
			d.Write(core.Address{Row: 101}, 1000)
		}},
		{"PRE to a closed bank", "PRE to bank 0 row -1 at cycle 1000: the bank is closed", func(d *dram.Device) {
			d.Precharge(a, 1000)
		}},
		{"REF with a bank open", "REF to bank 0 row 0 at cycle 1000: bank 0 has row 100 open", func(d *dram.Device) {
			d.Activate(a, 0)
			d.Refresh(0, 0, 0, 1000)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dram.DefaultConfig(mcr.Off())
			cfg.Mech = mech.Toggles{}
			d, o, _ := newDevice(t, cfg)
			tc.script(d)
			if err := o.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q, got %v", tc.want, err)
			}
		})
	}
}

// TestOracleReadsRowClasses: the oracle holds an MCR row to its band's
// Table 3 class and serves the open row's clones, holds a REF of the band
// to the band's tRFC, and holds a CLR ACT that converts its row to the
// baseline class plus the cycles the conversion charged.
func TestOracleReadsRowClasses(t *testing.T) {
	mcrCfg := dram.DefaultConfig(mcrtest.Mode(4, 4, 1))
	clr := mech.DefaultCLRConfig()
	clr.HotThreshold = 1
	clrCfg := dram.DefaultConfig(mcr.Off())
	clrCfg.CLR = &clr
	for _, tc := range []struct {
		name, rule string
		cfg        dram.Config
		script     func(t *testing.T, d *dram.Device, early int64)
	}{
		{"MCR tRCD", "tRCD", mcrCfg, func(t *testing.T, d *dram.Device, early int64) {
			d.Activate(a, 0)
			d.Read(core.Address{Row: 103}, int64(d.Timings().MCR.TRCD)-early) // a clone of row 100
		}},
		{"MCR tRAS", "tRAS", mcrCfg, func(t *testing.T, d *dram.Device, early int64) {
			d.Activate(a, 0)
			d.Precharge(a, int64(d.Timings().MCR.TRAS)-early)
		}},
		{"MCR tRFC", "tRFC", mcrCfg, func(t *testing.T, d *dram.Device, early int64) {
			_, done := d.Refresh(0, 0, 0, 0)
			if done != int64(d.Timings().RefreshPerK[4]) {
				t.Fatalf("a REF at [4/4x/100%%reg] refreshes the 4x band; this one is done at %d", done)
			}
			d.Activate(a, done-early)
		}},
		{"CLR conversion", "tRCD", clrCfg, func(t *testing.T, d *dram.Device, early int64) {
			d.Activate(a, 0)
			extra := d.MechStats().CopyCycles
			if extra == 0 {
				t.Fatal("the first ACT of a row converts it at HotThreshold 1")
			}
			d.Read(a, int64(d.Timings().Normal.TRCD)+extra-early)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, early := range []int64{0, 1} {
				d, o, _ := newDevice(t, tc.cfg)
				tc.script(t, d, early)
				err := o.Err()
				if early == 0 && err != nil {
					t.Fatalf("at the gate: %v", err)
				}
				if early == 1 && (err == nil || !strings.Contains(err.Error(), tc.rule+" needs")) {
					t.Fatalf("one cycle early: want a %s finding, got %v", tc.rule, err)
				}
			}
		})
	}
}

// TestOracleAcceptsGatedStreams drives a device of every backend with
// random commands, each issued at its Earliest* gate: the oracle reports
// nothing, and passes every command on to the observer it replaced.
func TestOracleAcceptsGatedStreams(t *testing.T) {
	tl, nu, clr := mech.DefaultTLConfig(), mech.DefaultNUATConfig(), mech.DefaultCLRConfig()
	clr.HotThreshold = 2
	cfgs := map[string]dram.Config{
		"off":    dram.DefaultConfig(mcr.Off()),
		"[2/4x]": dram.DefaultConfig(mcrtest.Mode(4, 2, 0.5)),
		"tldram": dram.DefaultConfig(mcr.Off()),
		"nuat":   dram.DefaultConfig(mcr.Off()),
		"clr":    dram.DefaultConfig(mcr.Off()),
	}
	for name, cfg := range cfgs {
		cfg.Geom.Channels, cfg.Geom.Banks = 2, 4
		switch name {
		case "tldram":
			cfg.TL = &tl
		case "nuat":
			cfg.NUAT = &nu
		case "clr":
			cfg.CLR = &clr
		}
		t.Run(name, func(t *testing.T) {
			d, o, rec := newDevice(t, cfg)
			g := d.Config().Geom
			rng := rand.New(rand.NewSource(5))
			// Few rows, so that CLR pairs convert: each end of a sub-array
			// (the TL far and near segments) and the edge of the MCR band.
			rows := []int{0, 1, 2, 3, 254, 255, 256, 257, 508, 509, 510, 511}
			now, issued := int64(0), 0
			for step := 0; step < 20_000; step++ {
				now += int64(rng.Intn(3))
				ad := core.Address{Channel: rng.Intn(g.Channels), Rank: rng.Intn(g.Ranks), Bank: rng.Intn(g.Banks), Row: rows[rng.Intn(len(rows))]}
				var when int64
				var ok bool
				switch rng.Intn(6) {
				case 0, 5:
					if when, ok = d.EarliestActivate(ad, now); ok {
						d.Activate(ad, when)
					}
				case 1:
					ad.Row = d.OpenRow(ad) ^ rng.Intn(2) // the open row, or a neighbour that may share its gang
					if when, ok = d.EarliestRead(ad, now); ok {
						d.Read(ad, when)
					}
				case 2:
					ad.Row = d.OpenRow(ad) ^ rng.Intn(2)
					if when, ok = d.EarliestWrite(ad, now); ok {
						d.Write(ad, when)
					}
				case 3:
					if when, ok = d.EarliestPrecharge(ad, now); ok {
						d.Precharge(ad, when)
					}
				case 4:
					if when, ok = d.EarliestRefresh(ad.Channel, ad.Rank, now); ok {
						d.Refresh(ad.Channel, ad.Rank, rng.Intn(mcr.RefsPerWindow), when)
					}
				}
				if ok {
					now = when
					issued++
				}
			}
			if err := o.Err(); err != nil {
				t.Fatal(err)
			}
			if len(*rec) != issued {
				t.Fatalf("the oracle passed on %d of %d commands", len(*rec), issued)
			}
		})
	}
}
