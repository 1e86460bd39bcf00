// DeviceAdapter plugs the retention checker into a dram.Device as its
// command observer, translating command records (cycles, flattened banks,
// REF base rows) into checker events (milliseconds, bank/row).

package integrity

import (
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mcr"
)

// DeviceAdapter implements dram.Observer over a Checker.
type DeviceAdapter struct {
	checker *Checker
	geom    core.Geometry
	dev     *dram.Device
}

// Attach builds an adapter for the device and installs it as the observer.
func Attach(dev *dram.Device, cfg Config) (*DeviceAdapter, error) {
	return AttachWithFaults(dev, cfg, nil)
}

// AttachWithFaults builds an adapter whose checker consults the given
// fault model (nil for nominal cells) and installs it as the device
// observer.
// Callers must pass a true nil for "no faults", never a typed-nil pointer.
func AttachWithFaults(dev *dram.Device, cfg Config, fm FaultModel) (*DeviceAdapter, error) {
	// The device is the Cloner: it answers from its *current* mechanism, so
	// an MRS (SetMode) that rebuilds the MCR layout re-gangs the checker too
	// and backends with no MCR generator (TL/NUAT/CROW/CLR) just work.
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
	dev.SetObserver(a)
	return a, nil
}

// Checker exposes the underlying checker (resilience polling).
func (a *DeviceAdapter) Checker() *Checker { return a.checker }

// ms converts a memory cycle count to milliseconds.
func ms(now int64) float64 { return core.MemCyclesToNS(now) / 1e6 }

// Observe implements dram.Observer. An ACT verifies the opened cells still
// held data; a PRE restored the closed row to its class level; a REF that
// was not skipped restored its batch — base, base+mcr.RefsPerWindow, ... in
// every bank of the rank — to the refresh class level when it completed,
// except quarantined rows, which always refresh at full 1x restore.
func (a *DeviceAdapter) Observe(c dram.Command) {
	cfg := a.checker.cfg
	switch c.Kind {
	case core.CmdActivate:
		a.checker.CheckActivate(c.Bank, c.Row, ms(c.At))
	case core.CmdPrecharge:
		a.checker.RecordRestore(c.Bank, c.Row, cfg.RestoreLevelFor(c.MEff), ms(c.At))
	case core.CmdRefresh:
		if c.Skipped {
			return
		}
		level, full, t := cfg.RestoreLevelFor(c.MEff), cfg.RestoreLevelFor(1), ms(c.Done)
		for b := c.Bank; b < c.Bank+a.geom.Banks; b++ {
			for r := c.Row; r < a.geom.Rows; r += mcr.RefsPerWindow {
				l := level
				if a.dev.IsQuarantined(r) {
					l = full
				}
				a.checker.RecordRestore(b, r, l, t)
			}
		}
	default:
		// Column commands move no charge.
	}
}

// Activated and Precharged feed one ACT or PRE through Observe. They stay
// for the benchmark's integrity.hook_ns row (bench/layers.go), which calls
// them directly.
func (a *DeviceAdapter) Activated(addr core.Address, now int64) {
	a.Observe(dram.Command{Kind: core.CmdActivate, Bank: addr.BankID(a.geom), Row: addr.Row, At: now})
}

// Precharged: see Activated.
func (a *DeviceAdapter) Precharged(addr core.Address, row int, mEff int, now int64) {
	a.Observe(dram.Command{Kind: core.CmdPrecharge, Bank: addr.BankID(a.geom), Row: row, At: now, MEff: mEff})
}

// Finish sweeps every tracked row at the end of a run.
func (a *DeviceAdapter) Finish(now int64) { a.checker.Sweep(ms(now)) }

// Violations returns the detected failures.
func (a *DeviceAdapter) Violations() []Violation { return a.checker.Violations() }

var _ dram.Observer = (*DeviceAdapter)(nil)
