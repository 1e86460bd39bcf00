package dram

import (
	"reflect"
	"testing"

	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// TestQuarantineAcrossBackends: the resilience policy quarantines rows
// without caring which mechanism is active — every backend must take the
// demotion without panicking, report it, and keep RowParams/MEff
// consistent. MCR demotes the whole clone gang; the comparators demote
// the single row (TL-DRAM and NUAT keep their segment/freshness timing,
// which is positional, not a per-row acceleration to revoke).
func TestQuarantineAcrossBackends(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		// rows newly demoted by the first Quarantine(row) call
		wantDemoted int
		// quarantine forces conventional timing for the row
		wantNormalTRCD bool
	}{
		{
			name:           "mcr",
			cfg:            func() Config { return DefaultConfig(mcrtest.Mode(4, 4, 1)) },
			wantDemoted:    4,
			wantNormalTRCD: true,
		},
		{
			name: "tldram",
			cfg: func() Config {
				c := DefaultConfig(mcr.Off())
				tl := DefaultTLConfig()
				c.TL = &tl
				return c
			},
			wantDemoted:    1,
			wantNormalTRCD: false, // near/far class is positional
		},
		{
			name: "nuat",
			cfg: func() Config {
				c := DefaultConfig(mcr.Off())
				n := DefaultNUATConfig()
				c.NUAT = &n
				return c
			},
			wantDemoted:    1,
			wantNormalTRCD: false, // freshness class is refresh-positional
		},
		{
			name: "clr",
			cfg: func() Config {
				c := DefaultConfig(mcr.Off())
				cl := DefaultCLRConfig()
				c.CLR = &cl
				return c
			},
			wantDemoted:    1,
			wantNormalTRCD: true,
		},
	}
	const row = 16
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev, err := New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if added := dev.Quarantine(row); added != tc.wantDemoted {
				t.Fatalf("Quarantine demoted %d rows, want %d", added, tc.wantDemoted)
			}
			if added := dev.Quarantine(row); added != 0 {
				t.Fatalf("re-quarantine demoted %d rows, want 0", added)
			}
			if !dev.IsQuarantined(row) {
				t.Fatal("row not reported quarantined")
			}
			found := false
			for _, r := range dev.mech.ExportState().Quarantined {
				if r == row {
					found = true
				}
			}
			if !found {
				t.Fatalf("QuarantinedRows %v misses row %d", dev.mech.ExportState().Quarantined, row)
			}
			p, inMCR := dev.RowParams(row)
			if inMCR {
				t.Fatal("quarantined row still reports MCR timing")
			}
			if p == nil {
				t.Fatal("RowParams returned nil for a quarantined row")
			}
			if tc.wantNormalTRCD && p.TRCD != dev.Timings().Normal.TRCD {
				t.Fatalf("quarantined row tRCD = %d, want normal %d", p.TRCD, dev.Timings().Normal.TRCD)
			}
			if dev.MEff(row) != 1 {
				t.Fatalf("quarantined row restore class %d, want 1 (full restore)", dev.MEff(row))
			}
			// Demotion must not break unrelated rows or gang queries.
			if dev.IsQuarantined(row + 1024) {
				t.Fatal("unrelated row quarantined")
			}
			if k := dev.GangK(row); k < 1 {
				t.Fatalf("GangK(%d) = %d after quarantine", row, k)
			}
			if k := dev.GangK(row + 1024); tc.name == "mcr" && k != 4 {
				t.Fatalf("GangK(%d) = %d after another gang's quarantine, want 4", row+1024, k)
			}
		})
	}
}

func TestQuarantineDemotesGangTo1x(t *testing.T) {
	dev, err := New(DefaultConfig(mcrtest.Mode(4, 4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	row := 16
	gang := dev.Generator().CloneRows(row)
	if len(gang) != 4 {
		t.Fatalf("fixture: expected a 4-wide gang, got %v", gang)
	}

	// Before: MCR timing and Early-Precharge restore class.
	if _, inMCR := dev.RowParams(row); !inMCR {
		t.Fatal("row should be MCR before quarantine")
	}
	if dev.MEff(row) == 1 {
		t.Fatal("row should have a reduced restore class before quarantine")
	}

	if added := dev.Quarantine(row); added != len(gang) {
		t.Fatalf("Quarantine added %d rows, want the whole gang (%d)", added, len(gang))
	}
	if added := dev.Quarantine(gang[len(gang)-1]); added != 0 {
		t.Fatalf("re-quarantining the gang added %d rows, want 0", added)
	}

	for _, r := range gang {
		if !dev.IsQuarantined(r) {
			t.Fatalf("gang member %d not quarantined", r)
		}
		p, inMCR := dev.RowParams(r)
		if inMCR {
			t.Fatalf("quarantined row %d still reports MCR timing", r)
		}
		if got, want := p.TRCD, dev.Timings().Normal.TRCD; got != want {
			t.Fatalf("quarantined row %d tRCD = %d, want normal %d", r, got, want)
		}
		if dev.MEff(r) != 1 {
			t.Fatalf("quarantined row %d restore class %d, want 1 (full restore)", r, dev.MEff(r))
		}
	}
	if got := dev.mech.ExportState().Quarantined; !reflect.DeepEqual(got, gang) {
		t.Fatalf("QuarantinedRows = %v, want %v", got, gang)
	}

	// Unrelated rows keep their MCR class.
	other := row + 8
	if dev.IsQuarantined(other) {
		t.Fatalf("row %d should be untouched", other)
	}
	if _, inMCR := dev.RowParams(other); !inMCR {
		t.Fatalf("row %d lost its MCR timing", other)
	}
}
