// Row quarantine: the graceful-degradation fallback for rows caught (or
// suspected) failing under aggressive timing. A quarantined row is
// permanently demoted to conventional 1x operation — full DDR3 timing
// and full restore — with the active backend deciding what else the
// demotion tears down (an MCR gang demotes whole, a CLR pair uncouples).

package dram

// Quarantine demotes a row and whatever structure it shares to baseline
// operation. It returns how many rows were newly quarantined.
func (d *Device) Quarantine(row int) int { return d.mech.Quarantine(row) }

// IsQuarantined reports whether a row has been demoted to 1x operation.
func (d *Device) IsQuarantined(row int) bool { return d.mech.IsQuarantined(row) }
