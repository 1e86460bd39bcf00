// Package mcr implements the paper's peripheral-circuit proposal: the
// MCR-mode configuration [M/Kx/L%reg] (Table 1), the MCR generator that
// detects MCR rows and gangs K wordlines (Sec. 4.2, Fig 7) for a simple
// mode or a combined 2x+4x layout (Sec. 4.4), the two
// refresh-counter wiring methods (Sec. 4.3, Fig 8), the Refresh-Skipping
// schedule (Fig 9), the mode register, and the governor that relaxes the
// mode under sustained integrity violations. The physical-address mapping
// that makes such a relax collision-free (Table 2) is modelled in
// mapping_test.go, beside the tests that check it.
package mcr

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
)

// Mode is one MCR-mode configuration [M/Kx/L%reg] (paper Table 1):
// K rows per MCR, M refreshes per MCR per 64 ms window, and the fraction of
// all rows that belong to MCRs.
type Mode struct {
	K      int     // rows ganged per MCR: 1 (off), 2 or 4
	M      int     // refreshes kept per MCR per window: 1 <= M <= K, power of two
	Region float64 // L%reg: fraction of rows in MCRs (0, 0.25, 0.5, 0.75 or 1)
}

// Off returns the disabled MCR-mode: the DRAM behaves as a conventional
// full-capacity device.
func Off() Mode { return Mode{K: 1, M: 1, Region: 0} }

// NewMode builds a validated mode from K, M and the region fraction.
func NewMode(k, m int, region float64) (Mode, error) {
	md := Mode{K: k, M: m, Region: region}
	if err := md.Validate(); err != nil {
		return Mode{}, err
	}
	return md, nil
}

// Validate checks the Table 1 constraints on the configuration.
func (md Mode) Validate() error {
	if err := errors.Join(
		core.Within("mcr: K", md.K, core.Closed, 1, 4),
		core.Within("mcr: M", md.M, core.Closed, 1, md.K),
	); err != nil {
		return err
	}
	if bits.OnesCount(uint(md.K)) != 1 || bits.OnesCount(uint(md.M)) != 1 {
		return fmt.Errorf("mcr: K and M must be powers of two, got K=%d M=%d", md.K, md.M)
	}
	if err := core.Within("mcr: Region", md.Region, core.Closed, 0, 1); err != nil {
		return err
	}
	if q := md.Region * 4; q != math.Trunc(q) || (md.K == 1) != (md.Region == 0) {
		return fmt.Errorf("mcr: the region of a %dx mode must be 0.25, 0.5, 0.75 or 1, and of 1x empty, got %g", md.K, md.Region)
	}
	return nil
}

// Enabled reports whether the mode actually gangs rows.
func (md Mode) Enabled() bool { return md.K > 1 && md.Region > 0 }

// String renders the paper's "[M/Kx/L%reg]" notation.
func (md Mode) String() string {
	if !md.Enabled() {
		return "mode [off]"
	}
	return fmt.Sprintf("mode [%d/%dx/%d%%reg]", md.M, md.K, int(md.Region*100+0.5))
}
