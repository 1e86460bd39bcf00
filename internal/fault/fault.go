// Package fault injects deterministic, seed-driven weaknesses into the
// retention model the integrity checker verifies. The paper's Sec. 3.3
// safety argument assumes every cell is no worse than the worst-case cell
// of the datasheet; real DRAM retention has tails — a small population of
// cells retains data for far less than the nominal window. This package
// models that tail: a seeded fraction of rows whose worst-case cell leaks
// faster than the nominal one, harder still when K cells share its sense
// amplifier in an MCR gang.
//
// Everything is a pure function of (Config.Seed, row): whether a row is
// weak and its sampled retention tail are derived by hashing, never by a
// stateful RNG, so two models built from the same configuration agree
// cell-for-cell and a model can answer queries lazily without storing
// per-row state. The zero-value Config disables injection entirely: a
// Model over it is a byte-identical no-op (LeakMultiplier is exactly 1,
// no weak rows).
//
// Time scales are compressed: real retention tails live at seconds to
// minutes while the simulator covers a few milliseconds of memory time,
// so callers choose tail ranges (TailMinFrac/TailMaxFrac) that make tail
// cells observably fail within simulation-sized runs (the same reasoning
// that makes integrity.Config.RetentionMs configurable).
package fault

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// Hash salts, one per sampled property. Every weak-row and tail draw, and
// so every guarded result, depends on their values.
const (
	saltWeak  = 1
	saltScale = 2
)

// Config describes the injected fault population. The zero value disables
// injection.
type Config struct {
	// Seed drives every per-row sample. 0 lets the caller substitute the
	// simulation seed (sim does exactly that).
	Seed int64

	// WeakFraction is the fraction of rows whose worst-case cell sits in
	// the retention tail: its retention window is sampled from
	// [TailMinFrac, TailMaxFrac] of the nominal timing.RetentionWindowMs,
	// and is further divided by K when the row is ganged in a Kx MCR (one
	// sense amplifier restoring K cells stresses the weak cell hardest).
	WeakFraction float64
	// TailMinFrac/TailMaxFrac bound the sampled retention tail as
	// fractions of the nominal window.
	TailMinFrac, TailMaxFrac float64
}

// Enabled reports whether the configuration injects anything at all.
func (c Config) Enabled() bool { return c.WeakFraction > 0 }

// Validate checks the configuration. The zero value is valid (disabled).
// A disabled configuration's tails need only be finite numbers, which a
// snapshot's config encoding can carry.
func (c Config) Validate() error {
	weak := core.Within("fault: WeakFraction", c.WeakFraction, core.Closed, 0, 1)
	if !c.Enabled() {
		return errors.Join(weak,
			core.Within("fault: TailMinFrac", c.TailMinFrac, core.Closed, -math.MaxFloat64, math.MaxFloat64),
			core.Within("fault: TailMaxFrac", c.TailMaxFrac, core.Closed, -math.MaxFloat64, math.MaxFloat64))
	}
	return errors.Join(weak,
		core.Within("fault: TailMinFrac", c.TailMinFrac, core.Open, 0, 1),
		core.Within("fault: TailMaxFrac", c.TailMaxFrac, core.OpenHi, c.TailMinFrac, 1))
}

// Model answers per-row fault queries for one device. It is stateless
// beyond its configuration; all methods are safe for concurrent use.
type Model struct {
	cfg  Config
	rows int
}

// NewModel builds a model for a device with the given rows per bank.
func NewModel(cfg Config, rows int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rows <= 0 {
		return nil, fmt.Errorf("fault: rows must be positive, got %d", rows)
	}
	return &Model{cfg: cfg, rows: rows}, nil
}

// mix hashes (seed, row, salt) into 64 well-stirred bits (splitmix64
// finalizer), the only "randomness" in the package.
func mix(seed int64, row int, salt uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + (uint64(row)+1)*0xBF58476D1CE4E5B9 + salt*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// draw returns the row's unit sample for a salt.
func (m *Model) draw(row int, salt uint64) float64 { return unit(mix(m.cfg.Seed, row, salt)) }

// IsWeak reports whether the row's worst-case cell sits in the retention
// tail.
func (m *Model) IsWeak(row int) bool {
	return m.cfg.WeakFraction > 0 && m.draw(row, saltWeak) < m.cfg.WeakFraction
}

// TailScale returns the row's sampled retention tail as a fraction of the
// nominal window, in [TailMinFrac, TailMaxFrac]. Meaningful only for weak
// rows.
func (m *Model) TailScale(row int) float64 {
	return m.cfg.TailMinFrac + (m.cfg.TailMaxFrac-m.cfg.TailMinFrac)*m.draw(row, saltScale)
}

// LeakMultiplier returns the factor by which the nominal leakage over
// [fromMs, toMs] must be multiplied for a row ganged K-wide: 1 for a
// healthy row, K/tailScale for a weak one. It implements the integrity
// checker's FaultModel hook.
func (m *Model) LeakMultiplier(row, k int, fromMs, toMs float64) float64 {
	if toMs <= fromMs || !m.IsWeak(row) {
		return 1
	}
	return float64(max(k, 1)) / m.TailScale(row)
}
