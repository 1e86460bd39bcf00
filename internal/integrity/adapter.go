// DeviceAdapter plugs the retention checker into a dram.Device as its
// command-stream hook, translating device events (cycles, addresses) into
// checker events (milliseconds, bank/row).

package integrity

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
)

// DeviceAdapter implements dram.Hook over a Checker.
type DeviceAdapter struct {
	checker *Checker
	geom    core.Geometry
	dev     *dram.Device
}

// Attach builds an adapter for the device and installs it as the hook.
func Attach(dev *dram.Device, cfg Config) (*DeviceAdapter, error) {
	return AttachWithFaults(dev, cfg, nil)
}

// AttachWithFaults builds an adapter whose checker consults the given
// fault model (nil for nominal cells) and installs it as the device hook.
// Callers must pass a true nil for "no faults", never a typed-nil pointer.
func AttachWithFaults(dev *dram.Device, cfg Config, fm FaultModel) (*DeviceAdapter, error) {
	// The device is the Cloner: it answers from its *current* mechanism, so
	// an MRS (SetMode) that rebuilds the MCR layout re-gangs the checker too
	// and backends with no layout generator (TL/NUAT/CROW/CLR) just work.
	checker, err := New(cfg, dev)
	if err != nil {
		return nil, err
	}
	geom := dev.Config().Geom
	checker.banks, checker.rows = int32(geom.Channels*geom.Ranks*geom.Banks), int32(geom.Rows)
	if fm != nil {
		checker.SetFaults(fm)
	}
	checker.SetModeContext(
		func() string {
			if c := dev.Config(); c.Layout.Enabled() {
				return c.Layout.String()
			}
			return dev.Config().Mode.String()
		},
		func(row int) int {
			if dev.IsQuarantined(row) {
				return 1
			}
			return dev.GangK(row)
		},
	)
	a := &DeviceAdapter{checker: checker, geom: geom, dev: dev}
	dev.SetHook(a)
	return a, nil
}

// Checker exposes the underlying checker (resilience polling).
func (a *DeviceAdapter) Checker() *Checker { return a.checker }

// ms converts a memory cycle count to milliseconds.
func ms(now int64) float64 { return core.MemCyclesToNS(now) / 1e6 }

// Activated implements dram.Hook: verify the opened cells still held data.
func (a *DeviceAdapter) Activated(addr core.Address, now int64) {
	a.checker.CheckActivate(addr.BankID(a.geom), addr.Row, ms(now))
}

// Precharged implements dram.Hook: the closed row was restored to its
// class level.
func (a *DeviceAdapter) Precharged(addr core.Address, row int, mEff int, now int64) {
	if row < 0 {
		return
	}
	a.checker.RecordRestore(addr.BankID(a.geom), row, a.checker.cfg.RestoreLevelFor(mEff), ms(now))
}

// Refreshed implements dram.Hook: the batch rows (in every bank of the
// rank) were restored to the refresh class level — except quarantined
// rows, which always refresh at full 1x restore.
func (a *DeviceAdapter) Refreshed(ch, rank int, rows []int, mEff int, now int64) {
	level := a.checker.cfg.RestoreLevelFor(mEff)
	full := a.checker.cfg.RestoreLevelFor(1)
	t := ms(now)
	for b := 0; b < a.geom.Banks; b++ {
		bankID := core.Address{Channel: ch, Rank: rank, Bank: b}.BankID(a.geom)
		for _, r := range rows {
			l := level
			if a.dev.IsQuarantined(r) {
				l = full
			}
			a.checker.RecordRestore(bankID, r, l, t)
		}
	}
}

// Finish sweeps every tracked row at the end of a run.
func (a *DeviceAdapter) Finish(now int64) { a.checker.Sweep(ms(now)) }

// Ok reports whether the run was retention-safe.
func (a *DeviceAdapter) Ok() bool { return a.checker.Ok() }

// Violations returns the detected failures.
func (a *DeviceAdapter) Violations() []Violation { return a.checker.Violations() }

// Err summarizes the violations as one error (nil when safe).
func (a *DeviceAdapter) Err() error {
	vs := a.checker.Violations()
	if len(vs) == 0 {
		return nil
	}
	return fmt.Errorf("integrity: %d retention violations, first: %v", len(vs), vs[0])
}

var _ dram.Hook = (*DeviceAdapter)(nil)
