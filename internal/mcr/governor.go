// Reliability-driven MCR-mode governance: ganged modes stress weak cells
// K-fold, so sustained integrity violations at one rung step the mode
// ladder toward capacity (4x -> 2x -> off). The paper's Table 2 mapping
// (Sec. 4.4) makes that relax direction collision-free without migrating
// data, so it is the only direction the governor takes.

package mcr

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// GovernorConfig sets when the governor relaxes.
type GovernorConfig struct {
	// DowngradeAfter is the number of integrity violations (modeled ECC
	// events) at the current rung that triggers a reliability relax —
	// ganged modes stress weak cells K-fold, so sustained violations mean
	// the rung is too aggressive for this device's cell population.
	// 0 disables the relax.
	DowngradeAfter int
}

// Validate checks the threshold.
func (c GovernorConfig) Validate() error {
	return core.Within("mcr: DowngradeAfter", c.DowngradeAfter, core.Closed, 0, math.MaxInt)
}

// Governor tracks the mode ladder for one device.
type Governor struct {
	cfg GovernorConfig
	// ladder is ordered fastest (least capacity) first.
	ladder []Mode
	pos    int // current rung
	// violations counts integrity violations observed at the current rung
	// (reset whenever the rung changes).
	violations int
}

// NewGovernor builds a governor starting at the given rung of the default
// ladder [4/4x/100%] -> [2/2x/100%] -> off.
func NewGovernor(cfg GovernorConfig, startK int) (*Governor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	four, err := NewMode(4, 4, 1)
	if err != nil {
		return nil, err
	}
	two, err := NewMode(2, 2, 1)
	if err != nil {
		return nil, err
	}
	g := &Governor{
		cfg:    cfg,
		ladder: []Mode{four, two, Off()},
	}
	for i, m := range g.ladder {
		if m.K == startK {
			g.pos = i
			return g, nil
		}
	}
	return nil, fmt.Errorf("mcr: no ladder rung with K=%d", startK)
}

// Mode returns the current mode.
func (g *Governor) Mode() Mode { return g.ladder[g.pos] }

// RecordViolations feeds n fresh integrity violations (modeled ECC
// events) into the current rung's count and reports whether the rung has
// now accumulated DowngradeAfter of them with a roomier rung below. It
// does not change the rung — commit with Relax. The per-rung counter
// persists until the rung changes, so sustained violations keep pushing
// the ladder toward off.
func (g *Governor) RecordViolations(n int) bool {
	if n <= 0 || g.cfg.DowngradeAfter <= 0 {
		return false
	}
	g.violations += n
	return g.violations >= g.cfg.DowngradeAfter && g.pos < len(g.ladder)-1
}

// Relax steps to the next roomier rung, which needs no data movement, and
// returns the new mode.
func (g *Governor) Relax() (Mode, error) {
	if g.pos >= len(g.ladder)-1 {
		return g.Mode(), fmt.Errorf("mcr: already at full capacity")
	}
	g.pos++
	g.violations = 0
	return g.Mode(), nil
}

// ExportState returns the governor's mutable state — the current ladder
// rung and the violations accumulated at it — for checkpointing. The
// ladder itself is fixed at construction and need not be saved.
func (g *Governor) ExportState() (pos, violations int) { return g.pos, g.violations }

// RestoreState reinstates a checkpointed rung position and violation
// count on a freshly built governor.
func (g *Governor) RestoreState(pos, violations int) error {
	if pos < 0 || pos >= len(g.ladder) {
		return fmt.Errorf("mcr: governor rung %d out of range [0,%d)", pos, len(g.ladder))
	}
	if violations < 0 {
		return fmt.Errorf("mcr: governor violation count must be non-negative, got %d", violations)
	}
	g.pos, g.violations = pos, violations
	return nil
}
