// The MCR-DRAM backend: the paper's multiple-clone-row machinery —
// MCR generator, refresh scheduler and MRS-programmable mode register
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

// Generator exposes the MCR generator, the row classifier of the current
// mode or layout.
func (m *MCR) Generator() *mcr.Generator { return m.gen }

// RowParams returns the band timing of the row: quarantined rows run at
// the safe baseline, ganged rows at their band's relaxed Table 3 class.
func (m *MCR) RowParams(row int) (*timing.Params, bool) {
	if m.quarantined[row] {
		return &m.tim.Normal, false
	}
	k := m.gen.KAt(row)
	if k > 1 {
		if p := m.perK[k]; p != nil {
			return p, true
		}
	}
	return &m.tim.Normal, false
}

// OnActivate counts MCR-band activations as fast activates.
func (m *MCR) OnActivate(row int, now int64) (int64, obs.EventKind, bool) {
	if !m.quarantined[row] && m.gen.InMCR(row) {
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
	b, err := newBase(cfg)
	if err != nil {
		return err
	}
	b.quarantined, b.stats = m.quarantined, m.stats
	m.base = b
	m.rebuildPerK()
	return nil
}

var _ Mechanism = (*MCR)(nil)
