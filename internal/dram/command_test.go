package dram

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/obs"
)

// recorder is an Observer that keeps every record.
type recorder []Command

func (r *recorder) Observe(c Command) { *r = append(*r, c) }

// observed attaches a registry, a tracer and a recorder to the device.
func observed(d *Device) (*obs.Registry, *obs.Tracer, *recorder) {
	g := d.Config().Geom
	reg, tr, rec := obs.NewRegistry(), obs.NewTracer(64), &recorder{}
	reg.EnsureBanks(g.Channels * g.Ranks * g.Banks)
	d.SetObservability(reg, tr)
	d.SetObserver(rec)
	return reg, tr, rec
}

// TestCommandStreamScripted drives every command kind through an MCR
// [2/4x] device with Refresh-Skipping and expects exactly one record per
// issued command, as issued: kind, flattened bank, row (the closed row of
// a PRE, the batch base row of a REF), issue and done cycles, restore
// class, trace argument and the skip mark. The registry's per-bank counts
// and the tracer's command events are the same stream.
func TestCommandStreamScripted(t *testing.T) {
	d := newDevice(t, mcrtest.Mode(4, 2, 1), AllMechanisms())
	reg, tr, rec := observed(d)
	tim := d.Timings()
	a := core.Address{Rank: 1, Bank: 3, Row: 262} // an MCR row: 100%reg
	bank := a.BankID(d.Config().Geom)
	rank1 := core.Address{Rank: 1}.BankID(d.Config().Geom)

	d.Activate(a, 0)
	rd, _ := d.EarliestRead(a, 0)
	rdEnd := d.Read(a, rd)
	wr, _ := d.EarliestWrite(a, rd)
	wrEnd := d.Write(a, wr)
	pre, _ := d.EarliestPrecharge(a, wr)
	d.Precharge(a, pre)
	// Under K-to-N-1-K the base row is the bit-reversed 13-bit counter, and
	// a 2/4x band keeps the REFs whose occurrence (counter >> 11) plus group
	// (counter & 2047) is even: counter 2 refreshes from row 1<<11, counter
	// 3 would have from row 3<<11 and is skipped.
	ref, _ := d.EarliestRefresh(0, 1, pre)
	if op, done := d.Refresh(0, 1, 2, ref); op.Skipped || done == ref {
		t.Fatalf("REF 2 must run, got %+v done at %d", op, done)
	}
	skipAt, _ := d.EarliestRefresh(0, 1, ref)
	if op, _ := d.Refresh(0, 1, 3, skipAt); !op.Skipped {
		t.Fatalf("REF 3 must be skipped under 2/4x, got %+v", op)
	}

	want := []Command{
		{Kind: core.CmdActivate, Bank: bank, Row: 262, At: 0, Done: int64(tim.MCR.TRCD), Arg: 4},
		{Kind: core.CmdRead, Bank: bank, Row: 262, At: rd, Done: rdEnd},
		{Kind: core.CmdWrite, Bank: bank, Row: 262, At: wr, Done: wrEnd},
		{Kind: core.CmdPrecharge, Bank: bank, Row: 262, At: pre, Done: pre + int64(tim.Normal.TRP), MEff: 2},
		{Kind: core.CmdRefresh, Bank: rank1, Row: 1 << 11, At: ref, Done: ref + int64(tim.RefreshPerK[4]), MEff: 2, Arg: 4},
		{Kind: core.CmdRefresh, Bank: rank1, Row: 3 << 11, At: skipAt, Done: skipAt, Arg: 3, Skipped: true},
	}
	if len(*rec) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(*rec), len(want), *rec)
	}
	for i, c := range *rec {
		if c != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, c, want[i])
		}
	}
	sameRegistry(t, d, reg, *rec)
	sameTrace(t, tr.Events(), *rec)
}

// TestCommandStreamCROWCopy: a CROW ACT that charges a row copy is still
// one ACT record; the copy is a policy event on the tracer right after the
// ACT's own event, spanning the cycles the copy charged.
func TestCommandStreamCROWCopy(t *testing.T) {
	cfg := DefaultConfig(mcr.Off())
	crow := DefaultCROWConfig()
	cfg.CROW = &crow
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, tr, rec := observed(d)
	a := core.Address{Bank: 2, Row: 77}
	now := int64(0)
	for i := 0; i < crow.HotThreshold; i++ {
		now, _ = d.EarliestActivate(a, now)
		d.Activate(a, now)
		now, _ = d.EarliestPrecharge(a, now)
		d.Precharge(a, now)
	}
	if d.MechStats().Copies != 1 {
		t.Fatalf("the %d-th ACT must copy the row, stats %+v", crow.HotThreshold, d.MechStats())
	}
	if len(*rec) != 2*crow.HotThreshold {
		t.Fatalf("got %d records for %d ACT/PRE pairs", len(*rec), crow.HotThreshold)
	}
	for i, c := range *rec {
		if want := [2]core.CommandKind{core.CmdActivate, core.CmdPrecharge}[i%2]; c.Kind != want || c.Row != 77 {
			t.Fatalf("record %d = %+v, want a %v of row 77", i, c, want)
		}
	}
	sameRegistry(t, d, reg, *rec)
	evs := tr.Events()
	last := (*rec)[len(*rec)-2] // the copying ACT
	copyAt := len(evs) - 2
	if evs[copyAt-1].Kind != obs.EvACT || evs[copyAt-1].TS != last.At {
		t.Fatalf("the event before the copy is %+v, want the copying ACT at %d", evs[copyAt-1], last.At)
	}
	if ev := evs[copyAt]; ev.Kind != obs.EvCopy || ev.TS != last.At || ev.Dur != d.MechStats().CopyCycles || ev.Row != 77 {
		t.Fatalf("copy event = %+v, want a %d-cycle row-copy of row 77 at %d", ev, d.MechStats().CopyCycles, last.At)
	}
	var cmds []obs.Event
	for _, ev := range evs {
		if ev.Kind != obs.EvCopy {
			cmds = append(cmds, ev)
		}
	}
	sameTrace(t, cmds, *rec)
}

// sameRegistry checks the registry's per-bank counts against the records:
// one per command, a REF on every bank of its rank, a skipped one on none.
func sameRegistry(t *testing.T, d *Device, reg *obs.Registry, recs []Command) {
	t.Helper()
	want := map[string][]int64{}
	for _, c := range recs {
		counts := want[c.Kind.String()]
		if counts == nil {
			counts = make([]int64, reg.Banks())
			want[c.Kind.String()] = counts
		}
		switch {
		case c.Skipped:
		case c.Kind == core.CmdRefresh:
			for b := c.Bank; b < c.Bank+d.Config().Geom.Banks; b++ {
				counts[b]++
			}
		default:
			counts[c.Bank]++
		}
	}
	got := reg.Snapshot().PerBank
	for kind, counts := range want {
		for b, n := range counts {
			if got[kind][b] != n {
				t.Errorf("registry counts %d %s on bank %d, the records %d", got[kind][b], kind, b, n)
			}
		}
	}
}

// sameTrace checks the command events are exactly one per record.
func sameTrace(t *testing.T, evs []obs.Event, recs []Command) {
	t.Helper()
	if len(evs) != len(recs) {
		t.Fatalf("%d trace events for %d records", len(evs), len(recs))
	}
	kinds := map[core.CommandKind]obs.EventKind{
		core.CmdActivate: obs.EvACT, core.CmdRead: obs.EvRD, core.CmdWrite: obs.EvWR,
		core.CmdPrecharge: obs.EvPRE, core.CmdRefresh: obs.EvREF,
	}
	for i, c := range recs {
		kind, row := kinds[c.Kind], int32(c.Row)
		if c.Skipped {
			kind = obs.EvREFSkip
		}
		if c.Kind == core.CmdRefresh {
			row = -1
		}
		if ev := evs[i]; ev.Kind != kind || ev.TS != c.At || ev.Dur != c.Done-c.At || ev.Row != row || ev.Arg != c.Arg {
			t.Errorf("event %d = %+v, record %+v", i, ev, c)
		}
	}
}

// TestSetObserverNilDetaches: a detached observer sees nothing, and the
// registry attached beside it keeps counting.
func TestSetObserverNilDetaches(t *testing.T) {
	d := newDevice(t, mcr.Off(), Mechanisms{})
	reg := obs.NewRegistry()
	reg.EnsureBanks(16)
	rec := &recorder{}
	d.SetObserver(rec)
	d.SetObservability(reg, nil)
	d.SetObserver(nil)
	d.Activate(core.Address{Row: 8}, 0)
	if len(*rec) != 0 || reg.Snapshot().Commands["ACT"] != 1 {
		t.Fatalf("detached observer saw %d records, registry counted %d ACTs", len(*rec), reg.Snapshot().Commands["ACT"])
	}
}

// TestMEffClasses pins the restore-class selection the integrity checker
// and power model depend on.
func TestMEffClasses(t *testing.T) {
	cases := []struct {
		name string
		mode mcr.Mode
		mech Mechanisms
		row  int
		want int
	}{
		{"baseline", mcr.Off(), Mechanisms{}, 0, 1},
		{"mcr no EP", mcrtest.Mode(4, 4, 1), Mechanisms{EarlyAccess: true}, 0, 1},
		{"4/4x full", mcrtest.Mode(4, 4, 1), AllMechanisms(), 0, 4},
		{"2/4x with RS", mcrtest.Mode(4, 2, 1), AllMechanisms(), 0, 2},
		{"2/4x RS off", mcrtest.Mode(4, 2, 1), Mechanisms{EarlyAccess: true, EarlyPrecharge: true, FastRefresh: true}, 0, 4},
		{"normal row in 50%reg", mcrtest.Mode(4, 4, 0.5), AllMechanisms(), 10, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newDevice(t, c.mode, c.mech)
			if got := d.MEff(c.row); got != c.want {
				t.Fatalf("MEff(%d) = %d, want %d", c.row, got, c.want)
			}
		})
	}
}

// TestRefreshMEffClasses: the refresh restore class follows Fast-Refresh
// and skipping independently of the activation class.
func TestRefreshMEffClasses(t *testing.T) {
	d := newDevice(t, mcrtest.Mode(4, 2, 1), AllMechanisms())
	if got := d.mech.RefreshMEff(4, 2); got != 2 {
		t.Fatalf("refreshMEff(4,2) = %d, want 2", got)
	}
	if got := d.mech.RefreshMEff(1, 1); got != 1 {
		t.Fatalf("normal refresh class = %d, want 1", got)
	}
	noFR := newDevice(t, mcrtest.Mode(4, 2, 1), Mechanisms{EarlyAccess: true, EarlyPrecharge: true, RefreshSkipping: true})
	if got := noFR.mech.RefreshMEff(4, 2); got != 1 {
		t.Fatalf("without Fast-Refresh the REF restores fully, got class %d", got)
	}
	noRS := newDevice(t, mcrtest.Mode(4, 2, 1), Mechanisms{EarlyAccess: true, EarlyPrecharge: true, FastRefresh: true})
	if got := noRS.mech.RefreshMEff(4, 2); got != 4 {
		t.Fatalf("without skipping a 2/4x band refreshes 4 times, got class %d", got)
	}
}
