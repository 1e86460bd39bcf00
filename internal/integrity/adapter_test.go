package integrity

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mcr"
)

// TestAdapterRestoresEveryRowOncePerWindow: one window of REF commands
// through a real device restores every (bank, row) of the rank exactly
// once — each row when the REF whose base row matches its low 13 bits
// completes — and nothing outside the rank. The device reports a REF as
// its base row alone; the adapter walks the batch. With the mode off no
// row has clones, so a row restored twice shows as a later time.
func TestAdapterRestoresEveryRowOncePerWindow(t *testing.T) {
	for _, w := range []mcr.Wiring{mcr.KtoN1K, mcr.KtoK} {
		cfg := dram.DefaultConfig(mcr.Off())
		cfg.Wiring = w
		dev, err := dram.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Attach(dev, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		doneMs := make([]float64, mcr.RefsPerWindow) // by base row
		now := int64(0)
		for c := 0; c < mcr.RefsPerWindow; c++ {
			_, done := dev.Refresh(0, 1, c, now)
			doneMs[mcr.RefreshRowAddress(w, c, 13)] = ms(done)
			now = done
		}
		rows, err := a.Checker().ExportState().Rows.Unpack()
		if err != nil {
			t.Fatal(err)
		}
		g := cfg.Geom
		if len(rows) != g.Banks*g.Rows {
			t.Fatalf("%v: a window restored %d rows, the rank has %d", w, len(rows), g.Banks*g.Rows)
		}
		first := core.Address{Rank: 1}.BankID(g)
		for i, r := range rows { // in (bank, row) order
			if r.Bank != first+i/g.Rows || r.Row != i%g.Rows || r.AtMs != doneMs[r.Row%mcr.RefsPerWindow] || r.Level != 1 {
				t.Fatalf("%v: restored row %d is %+v, want bank %d row %d at %g ms, level 1",
					w, i, r, first+i/g.Rows, i%g.Rows, doneMs[(i%g.Rows)%mcr.RefsPerWindow])
			}
		}
	}
}
