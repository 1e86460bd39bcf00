// Dynamic MCR-mode governance (paper Sec. 4.4): when memory pressure
// threatens page faults, the OS/controller relaxes the MCR-mode (4x -> 2x
// -> off) to recover capacity; when pressure is low it may tighten again —
// but only relaxation is collision-free without migrating data, so
// tightening requires an explicit migration acknowledgement.

package mcr

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// GovernorConfig sets the pressure thresholds of the governor.
type GovernorConfig struct {
	// RelaxAbove is the utilization (allocated/visible capacity) beyond
	// which the governor steps to a roomier mode.
	RelaxAbove float64
	// TightenBelow is the utilization below which the governor is willing
	// to step to a faster (smaller-capacity) mode — with migration.
	TightenBelow float64
	// DowngradeAfter is the number of integrity violations (modeled ECC
	// events) at the current rung that triggers a reliability relax —
	// ganged modes stress weak cells K-fold, so sustained violations mean
	// the rung is too aggressive for this device's cell population.
	// 0 disables the violation-triggered path.
	DowngradeAfter int
}

// DefaultGovernorConfig uses the natural hysteresis band: relax when the
// visible memory is 90% full, tighten only when it would still be under
// 40% full after halving.
func DefaultGovernorConfig() GovernorConfig {
	return GovernorConfig{RelaxAbove: 0.90, TightenBelow: 0.40}
}

// Validate checks the thresholds.
func (c GovernorConfig) Validate() error {
	return errors.Join(
		core.Within("mcr: RelaxAbove", c.RelaxAbove, core.OpenLo, 0, 1),
		core.Within("mcr: TightenBelow", c.TightenBelow, core.OpenHi, 0, c.RelaxAbove),
		core.Within("mcr: DowngradeAfter", c.DowngradeAfter, core.Closed, 0, math.MaxInt),
	)
}

// Decision is the governor's verdict for one evaluation.
type Decision int

// Governor verdicts.
const (
	// Stay keeps the current mode.
	Stay Decision = iota
	// Relax steps to the next roomier mode (no data movement needed).
	Relax
	// Tighten steps to the next faster mode; the caller must migrate the
	// pages that live in rows the tighter mapping cannot reach.
	Tighten
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Stay:
		return "stay"
	case Relax:
		return "relax"
	case Tighten:
		return "tighten"
	}
	return "stay"
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

// VisibleFraction returns the fraction of physical capacity the OS sees in
// the current mode (1/K for the full-region ladder).
func (g *Governor) VisibleFraction() float64 { return 1 / float64(g.Mode().K) }

// Evaluate inspects the utilization of the *visible* memory (allocated
// bytes over visible bytes) and returns what to do. It does not change
// state; call Apply with the decision (after any required migration).
func (g *Governor) Evaluate(utilization float64) Decision {
	switch {
	case utilization > g.cfg.RelaxAbove && g.pos < len(g.ladder)-1:
		return Relax
	case g.pos > 0 && utilization*2 < g.cfg.TightenBelow:
		// Halving the visible capacity (one rung tighter) would still
		// leave utilization under the threshold.
		return Tighten
	}
	return Stay
}

// Apply commits a decision, returning the new mode. Tightening is refused
// unless migrated is true: the paper's Table 2 mapping makes relaxation
// free, but tightening orphans populated rows.
func (g *Governor) Apply(d Decision, migrated bool) (Mode, error) {
	switch d {
	case Stay:
	case Relax:
		if g.pos >= len(g.ladder)-1 {
			return g.Mode(), fmt.Errorf("mcr: already at full capacity")
		}
		g.pos++
		g.violations = 0
	case Tighten:
		if g.pos == 0 {
			return g.Mode(), fmt.Errorf("mcr: already at the fastest mode")
		}
		if !migrated {
			return g.Mode(), fmt.Errorf("mcr: tightening requires migrating pages out of soon-inaccessible rows")
		}
		g.pos--
		g.violations = 0
	default:
		return g.Mode(), fmt.Errorf("mcr: unknown decision %d", d)
	}
	return g.Mode(), nil
}

// RecordViolations feeds n fresh integrity violations (modeled ECC
// events) into the reliability path and returns the resulting decision:
// Relax once the current rung has accumulated DowngradeAfter violations
// and a roomier rung exists, Stay otherwise. Like Evaluate it does not
// change the rung — commit with Apply. The per-rung counter persists
// until the rung changes, so sustained violations keep pushing the
// ladder toward off.
func (g *Governor) RecordViolations(n int) Decision {
	if n <= 0 || g.cfg.DowngradeAfter <= 0 {
		return Stay
	}
	g.violations += n
	if g.violations >= g.cfg.DowngradeAfter && g.pos < len(g.ladder)-1 {
		return Relax
	}
	return Stay
}

// ViolationCount returns the violations accumulated at the current rung.
func (g *Governor) ViolationCount() int { return g.violations }

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
