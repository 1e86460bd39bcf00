// Mode register handling: MCR-mode is programmed through an existing MRS
// command using reserved mode-register bits (the paper points at A15-A3 of
// MR3 in DDR3), so the mode can be changed dynamically at run time.

package mcr

import "fmt"

// ModeRegister models the DRAM-side mode register that feeds the MCR
// generator.
type ModeRegister struct {
	mode       Mode
	generation int // bumped on every successful MRS, for cache invalidation
}

// NewModeRegister returns a register holding the disabled mode.
func NewModeRegister() *ModeRegister { return &ModeRegister{mode: Off()} }

// Mode returns the currently programmed MCR-mode.
func (r *ModeRegister) Mode() Mode { return r.mode }

// Generation returns a counter that increments on every accepted MRS;
// controllers use it to notice reconfigurations.
func (r *ModeRegister) Generation() int { return r.generation }

// Set programs a new MCR-mode (an MRS command). Any valid mode is accepted:
// the DRAM itself has no memory-safety opinion — collision safety across
// *tightening* changes is the controller/OS's job (see the Table 2 model
// in mapping_test.go).
func (r *ModeRegister) Set(m Mode) error {
	if err := m.Validate(); err != nil {
		return err
	}
	r.mode = m
	r.generation++
	return nil
}

// Restore reinstates a previously observed register state — mode and
// exact generation counter — when resuming from a checkpoint. A zero
// generation means the register was never programmed, so the mode must be
// the disabled one; any programmed generation requires a valid mode.
func (r *ModeRegister) Restore(m Mode, generation int) error {
	if generation < 0 {
		return fmt.Errorf("mcr: mode-register generation must be non-negative, got %d", generation)
	}
	if generation > 0 {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	r.mode = m
	r.generation = generation
	return nil
}
