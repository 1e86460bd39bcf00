package dram

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/mech"
)

// The gate arithmetic as it was written per Address before the device
// kept one bank-indexed implementation: the rank found by multiplying the
// address out, the data-bus wait as a loop. checkGates holds the
// bank-indexed probes to it.

func refEarliestActivate(d *Device, a core.Address, now int64) (int64, bool) {
	b, rk := &d.banks[a.BankID(d.cfg.Geom)], &d.ranks[a.Channel*d.cfg.Geom.Ranks+a.Rank]
	if b.OpenRow >= 0 {
		return 0, false
	}
	faw := rk.ActWindow[rk.ActWindowAt] + int64(d.tim.Normal.TFAW)
	return max(now, b.NextAct, rk.NextAct, faw, rk.RefreshBusyUntil), true
}

func refEarliestColumn(d *Device, a core.Address, write bool, now int64) int64 {
	b, rk := &d.banks[a.BankID(d.cfg.Geom)], &d.ranks[a.Channel*d.cfg.Geom.Ranks+a.Rank]
	t := max(now, b.NextRead, rk.NextReadOK, d.nextCol[a.Channel], rk.RefreshBusyUntil)
	latency := int64(d.tim.Normal.TCAS)
	if write {
		t = max(now, b.NextWrite, d.nextCol[a.Channel], rk.RefreshBusyUntil)
		latency = int64(d.tim.Normal.TCWD)
	}
	for {
		start := t + latency
		busFree := d.busBusyUntil[a.Channel]
		if d.busOwner[a.Channel] != a.Rank && d.busOwner[a.Channel] >= 0 {
			busFree += int64(d.tim.Normal.TRTRS)
		}
		if start >= busFree {
			return t
		}
		t += busFree - start
	}
}

func refEarliestPrecharge(d *Device, a core.Address, now int64) (int64, bool) {
	b, rk := &d.banks[a.BankID(d.cfg.Geom)], &d.ranks[a.Channel*d.cfg.Geom.Ranks+a.Rank]
	if b.OpenRow < 0 {
		return 0, false
	}
	return max(now, b.NextPre, rk.RefreshBusyUntil), true
}

// checkGates compares, for every bank, each bank-indexed probe and its
// Address wrapper with the reference above, and RankBusy with a recount.
func checkGates(t *testing.T, d *Device, now int64) {
	t.Helper()
	type probe struct {
		t  int64
		ok bool
	}
	g := d.cfg.Geom
	for ch := 0; ch < g.Channels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			open := false
			for b := 0; b < g.Banks; b++ {
				a := core.Address{Channel: ch, Rank: r, Bank: b}
				bank := a.BankID(g)
				a.Row = d.banks[bank].OpenRow
				open = open || a.Row >= 0

				var ref, at, wrapped probe
				ref.t, ref.ok = refEarliestActivate(d, a, now)
				at.t, at.ok = d.EarliestActivateAt(bank, now)
				wrapped.t, wrapped.ok = d.EarliestActivate(a, now)
				if at != ref || wrapped != ref {
					t.Fatalf("cycle %d %v: ACT first legal %+v by bank, %+v by address, reference %+v", now, a, at, wrapped, ref)
				}
				ref.t, ref.ok = refEarliestPrecharge(d, a, now)
				at.t, at.ok = d.EarliestPrechargeAt(bank, now)
				wrapped.t, wrapped.ok = d.EarliestPrecharge(a, now)
				if at != ref || wrapped != ref {
					t.Fatalf("cycle %d %v: PRE first legal %+v by bank, %+v by address, reference %+v", now, a, at, wrapped, ref)
				}
				for _, write := range []bool{false, true} {
					wrapped.t, wrapped.ok = d.EarliestRead(a, now)
					if write {
						wrapped.t, wrapped.ok = d.EarliestWrite(a, now)
					}
					if a.Row < 0 {
						if wrapped.ok {
							t.Fatalf("cycle %d %v: a column command to a closed bank is possible (write=%v)", now, a, write)
						}
						continue
					}
					ref := probe{refEarliestColumn(d, a, write, now), true}
					if at := d.EarliestColumnAt(bank, write, now); at != ref.t || wrapped != ref {
						t.Fatalf("cycle %d %v write=%v: column first legal %d by bank, %+v by address, reference %+v", now, a, write, at, wrapped, ref)
					}
				}
			}
			want := open || d.RefreshBusyUntil(ch, r) > now
			if got := d.RankBusy(ch, r, now); got != want {
				t.Fatalf("cycle %d: RankBusy(%d, %d) = %v, a recount says %v", now, ch, r, got, want)
			}
			if until, anyOpen := d.RankSpanState(ch, r); anyOpen != open || until != d.RefreshBusyUntil(ch, r) {
				t.Fatalf("cycle %d: RankSpanState(%d, %d) = (%d, %v), a recount says open=%v", now, ch, r, until, anyOpen, open)
			}
		}
	}
}

// TestRandomCommandSequences drives the device with random *legal* command
// sequences and checks internal consistency: stats add up, the open-row
// bookkeeping stays coherent, and after every step every bank's gates and
// every rank's busy state are what the reference arithmetic says
// (checkGates). Two channels of two ranks, so that bank -> rank -> channel
// is not the identity.
func TestRandomCommandSequences(t *testing.T) {
	modes := []mcr.Mode{mcr.Off(), mcrtest.Mode(2, 2, 0.5), mcrtest.Mode(4, 2, 1)}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig(mode)
			cfg.Geom.Channels, cfg.Geom.Banks = 2, 4
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			g := d.Config().Geom
			now := int64(0)
			var acts, reads, writes, pres, refs int64
			for step := 0; step < 20_000; step++ {
				checkGates(t, d, now)
				now += int64(rng.Intn(3))
				a := core.Address{
					Channel: rng.Intn(g.Channels),
					Rank:    rng.Intn(g.Ranks),
					Bank:    rng.Intn(g.Banks),
					Row:     rng.Intn(g.Rows),
					Column:  rng.Intn(g.Columns),
				}
				switch rng.Intn(5) {
				case 0: // activate
					if when, ok := d.EarliestActivate(a, now); ok && when <= now+40 {
						d.Activate(a, when)
						now = when
						acts++
					}
				case 1: // read an open row
					a.Row = d.OpenRow(a)
					if a.Row < 0 {
						continue
					}
					if when, ok := d.EarliestRead(a, now); ok && when <= now+40 {
						if end := d.Read(a, when); end <= when {
							t.Fatal("read must complete after issue")
						}
						now = when
						reads++
					}
				case 2: // write an open row
					a.Row = d.OpenRow(a)
					if a.Row < 0 {
						continue
					}
					if when, ok := d.EarliestWrite(a, now); ok && when <= now+40 {
						d.Write(a, when)
						now = when
						writes++
					}
				case 3: // precharge
					if when, ok := d.EarliestPrecharge(a, now); ok && when <= now+60 {
						d.Precharge(a, when)
						now = when
						pres++
					}
				case 4: // refresh an idle rank
					if when, ok := d.EarliestRefresh(a.Channel, a.Rank, now); ok && when <= now+60 {
						_, done := d.Refresh(a.Channel, a.Rank, int(refs), when)
						if done > when {
							now = done
						}
						refs++
					}
				}
			}
			st := d.Stats()
			if st.Activates != acts || st.Reads != reads || st.Writes != writes || st.Precharges != pres {
				t.Fatalf("stats drifted: %+v vs local (%d,%d,%d,%d)", st, acts, reads, writes, pres)
			}
			if acts == 0 || reads == 0 || pres == 0 {
				t.Fatal("fuzz never exercised the main commands")
			}
			if st.MCRActivates > st.Activates {
				t.Fatal("MCR activates cannot exceed activates")
			}
			// The per-rank open-bank count is derived state: an import
			// recounts it, onto a fresh device and onto one that has a
			// count already. Closing every bank afterwards shows a count
			// that came out too high.
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, into := range []*Device{fresh, d} {
				if err := into.ImportState(d.ExportState()); err != nil {
					t.Fatal(err)
				}
				checkGates(t, into, now)
				at := now
				for bank := range into.banks {
					a := core.Address{Channel: bank / (g.Ranks * g.Banks), Rank: bank / g.Banks % g.Ranks, Bank: bank % g.Banks}
					if when, ok := into.EarliestPrecharge(a, at); ok {
						into.Precharge(a, when)
						at = when
					}
				}
				checkGates(t, into, at+int64(into.Timings().Normal.TRFC))
			}
		})
	}
}

// TestEarliestNeverRegresses: for a closed bank, EarliestActivate is
// monotone in `now` (a core scheduling assumption of the controller).
func TestEarliestNeverRegresses(t *testing.T) {
	d := newDevice(t, mcrtest.Mode(4, 4, 1), mech.AllToggles())
	a := core.Address{Row: 77}
	d.Activate(a, 0)
	d.Precharge(a, int64(d.Timings().MCR.TRAS))
	prev := int64(0)
	for now := int64(0); now < 200; now += 7 {
		when, ok := d.EarliestActivate(a, now)
		if !ok {
			t.Fatal("bank is closed; ACT must be possible")
		}
		if when < prev {
			t.Fatalf("earliest ACT regressed: %d after %d", when, prev)
		}
		if when < now {
			t.Fatalf("earliest ACT %d in the past of %d", when, now)
		}
		prev = when
	}
}
