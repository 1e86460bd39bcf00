// The MCR-DRAM backend: the paper's multiple-clone-row machinery —
// layout generator, refresh scheduler and MRS-programmable mode register
// — extracted out of the device model. With the mode off it degenerates
// to conventional DRAM, so this is also the default backend.

package mech

import (
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/timing"
)

// MCR is the multiple-clone-row mechanism (and the conventional-DRAM
// backend when its mode is off).
type MCR struct {
	base
	gen     *mcr.Generator // non-nil only for single-band (simple Mode) devices
	modeReg *mcr.ModeRegister
	// perK points into stable per-band parameter sets (keyed by gang K),
	// rebuilt on SetMode; RowParams is the scheduling hot path.
	perK map[int]*timing.Params
}

// newMCR builds the backend from a validated configuration.
func newMCR(cfg Config) (*MCR, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	m := &MCR{base: b, modeReg: mcr.NewModeRegister()}
	if !cfg.Layout.Enabled() {
		m.gen, err = mcr.NewGenerator(cfg.Mode, cfg.Geom.RowsPerSubarray())
		if err != nil {
			return nil, err
		}
		if err := m.modeReg.Set(cfg.Mode); err != nil {
			return nil, err
		}
	}
	m.rebuildPerK()
	return m, nil
}

// rebuildPerK snapshots the resolved per-K parameter sets behind stable
// pointers.
func (m *MCR) rebuildPerK() {
	m.perK = make(map[int]*timing.Params, len(m.tim.PerK))
	for k, p := range m.tim.PerK {
		p := p
		m.perK[k] = &p
	}
}

// Name implements Mechanism.
func (m *MCR) Name() string { return "mcr" }

// Generator exposes the simple-mode MCR generator; nil for combined
// layouts (use LayoutGenerator there).
func (m *MCR) Generator() *mcr.Generator { return m.gen }

// LayoutGenerator exposes the universal row classifier.
func (m *MCR) LayoutGenerator() *mcr.LayoutGenerator { return m.lgen }

// RowParams returns the band timing of the row: quarantined rows run at
// the safe baseline, ganged rows at their band's relaxed Table 3 class.
func (m *MCR) RowParams(row int) (*timing.Params, bool) {
	if m.quarantined[row] {
		return &m.tim.Normal, false
	}
	k := m.lgen.KAt(row)
	if k > 1 {
		if p := m.perK[k]; p != nil {
			return p, true
		}
	}
	return &m.tim.Normal, false
}

// OnActivate counts MCR-band activations as fast activates.
func (m *MCR) OnActivate(row int, now int64) (int64, obs.EventKind, bool) {
	if !m.quarantined[row] && m.lgen.InMCR(row) {
		m.stats.FastActivates++
	}
	return 0, 0, false
}

// SupportsModeChange implements Mechanism: MCR devices take MRS.
func (m *MCR) SupportsModeChange() bool { return true }

// SetMode reprograms the mode register and rebuilds the timing classes.
// Combined layouts are fixed at construction; SetMode clears any layout
// in favor of the simple mode. The quarantine set survives.
func (m *MCR) SetMode(mode mcr.Mode, now int64) error {
	if err := m.modeReg.Set(mode); err != nil {
		return err
	}
	cfg := m.cfg
	cfg.Mode = mode
	cfg.Layout = mcr.Layout{}
	tim, err := ResolveTimings(cfg)
	if err != nil {
		return err
	}
	gen, err := mcr.NewGenerator(mode, cfg.Geom.RowsPerSubarray())
	if err != nil {
		return err
	}
	lgen, err := mcr.NewLayoutGenerator(mcr.LayoutOf(mode), cfg.Geom.RowsPerSubarray())
	if err != nil {
		return err
	}
	sched, err := mcr.NewLayoutScheduler(lgen, cfg.Wiring, cfg.Geom.Rows)
	if err != nil {
		return err
	}
	m.cfg, m.tim, m.gen, m.lgen, m.sched = cfg, tim, gen, lgen, sched
	m.rebuildPerK()
	return nil
}

// ModeGeneration exposes the mode-register generation counter.
func (m *MCR) ModeGeneration() int { return m.modeReg.Generation() }

var _ Mechanism = (*MCR)(nil)
