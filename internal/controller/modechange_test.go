package controller

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/mech"
)

func addr(ch, rank, bank int) core.Address {
	return core.Address{Channel: ch, Rank: rank, Bank: bank}
}

// TestModeChangeDrainsAndApplies: a requested mode switch drains open
// banks, issues the MRS, and lets queued work resume afterward.
func TestModeChangeDrainsAndApplies(t *testing.T) {
	c := newCtrl(t, mcrtest.Mode(4, 4, 1), nil)

	// Open a row first so the drain path has something to close.
	id, ok := c.EnqueueRead(0, 0, 0)
	if !ok {
		t.Fatal("enqueue must succeed")
	}
	opened := false
	now := int64(0)
	for ; now < 50 && !opened; now++ {
		c.Tick(now)
		for ch := 0; ch < c.geom.Channels; ch++ {
			for r := 0; r < c.geom.Ranks; r++ {
				for b := 0; b < c.geom.Banks; b++ {
					if c.dev.OpenRow(addr(ch, r, b)) >= 0 {
						opened = true
					}
				}
			}
		}
	}
	if !opened {
		t.Fatal("no row opened within 50 cycles")
	}
	_ = id

	c.RequestModeChange(mcr.Off())
	if c.pendingMode == nil {
		t.Fatal("mode change should be pending")
	}
	gen := c.dev.ExportState().Mech.ModeGen
	for ; now < 2000 && c.pendingMode != nil; now++ {
		c.Tick(now)
	}
	if c.pendingMode != nil {
		t.Fatal("mode change never applied within 2000 cycles")
	}
	if c.dev.ExportState().Mech.ModeGen != gen+1 {
		t.Fatalf("mode generation %d, want %d", c.dev.ExportState().Mech.ModeGen, gen+1)
	}
	if got := c.dev.Config().Mode; got.Enabled() {
		t.Fatalf("device mode after switch = %v, want off", got)
	}
	if st := c.Stats(); st.ModeChanges != 1 {
		t.Fatalf("ModeChanges = %d, want 1", st.ModeChanges)
	}

	// The queued read still completes under the new mode.
	var done bool
	for ; now < 3000 && !done; now++ {
		c.Tick(now)
		if len(c.DrainCompletions()) > 0 {
			done = true
		}
	}
	if !done {
		t.Fatal("queued read never completed after the mode change")
	}
}

// TestModeChangeImmediateWhenIdle: with every bank precharged the MRS
// applies on the next tick.
func TestModeChangeImmediateWhenIdle(t *testing.T) {
	c := newCtrl(t, mcrtest.Mode(2, 2, 1), nil)
	c.RequestModeChange(mcr.Off())
	c.Tick(0)
	if c.pendingMode != nil {
		t.Fatal("idle device should apply the MRS on the first tick")
	}
	if st := c.Stats(); st.ModeChanges != 1 {
		t.Fatalf("ModeChanges = %d, want 1", st.ModeChanges)
	}
}

// TestModeChangeRejectedByModelessBackends: backends without an MRS mode
// register reject the request with a typed error before any drain starts;
// the controller never sets pendingMode, and scheduling proceeds
// normally — a queued read still completes.
func TestModeChangeRejectedByModelessBackends(t *testing.T) {
	backends := map[string]func(*dram.Config){
		"tldram": func(c *dram.Config) { tl := dram.DefaultTLConfig(); c.TL = &tl },
		"nuat":   func(c *dram.Config) { n := dram.DefaultNUATConfig(); c.NUAT = &n },
		"clr":    func(c *dram.Config) { cl := dram.DefaultCLRConfig(); c.CLR = &cl },
	}
	for name, set := range backends {
		t.Run(name, func(t *testing.T) {
			dcfg := dram.DefaultConfig(mcr.Off())
			set(&dcfg)
			dev, err := dram.New(dcfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(DefaultConfig(), dev, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = c.RequestModeChange(mcr.Off())
			if !errors.Is(err, mech.ErrNoModes) {
				t.Fatalf("RequestModeChange error = %v, want wrapping mech.ErrNoModes", err)
			}
			if c.pendingMode != nil {
				t.Fatal("rejected request must not leave a pending drain")
			}
			if _, ok := c.EnqueueRead(0, 0, 0); !ok {
				t.Fatal("enqueue must succeed")
			}
			done := false
			for now := int64(0); now < 2000 && !done; now++ {
				c.Tick(now)
				done = len(c.DrainCompletions()) > 0
			}
			if !done {
				t.Fatal("scheduling stalled after a rejected mode change")
			}
			if st := c.Stats(); st.ModeChanges != 0 {
				t.Fatalf("ModeChanges = %d, want 0", st.ModeChanges)
			}
		})
	}
}

// TestModeChangeAcceptedByMCR: the MCR backend keeps taking requests (the
// gate must not over-reject).
func TestModeChangeAcceptedByMCR(t *testing.T) {
	c := newCtrl(t, mcrtest.Mode(2, 2, 1), nil)
	if err := c.RequestModeChange(mcr.Off()); err != nil {
		t.Fatalf("MCR device rejected a mode change: %v", err)
	}
	if c.pendingMode == nil {
		t.Fatal("accepted request must be pending")
	}
}

// TestModeChangeReplacedByNewerRequest: the newest requested target wins.
func TestModeChangeReplacedByNewerRequest(t *testing.T) {
	c := newCtrl(t, mcrtest.Mode(4, 4, 1), nil)
	c.RequestModeChange(mcrtest.Mode(2, 2, 1))
	c.RequestModeChange(mcr.Off())
	c.Tick(0)
	if c.pendingMode != nil {
		t.Fatal("MRS should have applied")
	}
	if got := c.dev.Config().Mode; got.Enabled() {
		t.Fatalf("device mode = %v, want off (newest request)", got)
	}
	if st := c.Stats(); st.ModeChanges != 1 {
		t.Fatalf("ModeChanges = %d, want 1 (only the final target applies)", st.ModeChanges)
	}
}
