// The graceful-degradation policy: a modeled ECC/scrub path that watches
// the integrity checker during the run and reacts to detected violations
// instead of merely reporting them post-mortem. Each *fresh* violation
// (first per cell) is an ECC event; the policy can quarantine the failing
// row's clone gang back to safe 1x operation, and feeds events into the
// mcr.Governor's reliability ladder — enough sustained events step the
// device toward a safer mode via the controller's MRS drain.

package sim

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// ResilienceConfig enables the degradation policy (requires the integrity
// checker, which Config wiring attaches automatically).
type ResilienceConfig struct {
	// DowngradeAfter is the number of ECC events at a mode rung that
	// triggers a relax toward a safer mode (0 disables mode degradation;
	// see mcr.GovernorConfig.DowngradeAfter).
	DowngradeAfter int
	// Quarantine demotes each failing row's clone gang to 1x timing and
	// full restore on its first ECC event.
	Quarantine bool
}

// Validate checks the policy configuration.
func (c ResilienceConfig) Validate() error {
	if c.DowngradeAfter < 0 {
		return fmt.Errorf("sim: DowngradeAfter must be non-negative, got %d", c.DowngradeAfter)
	}
	return nil
}

// ResilienceStats summarizes the degradation path of one run.
type ResilienceStats = snapshot.ResilienceStats

// resilienceState is the live policy attached to one run. Its cursor and
// counters are the embedded snapshot.ResilienceState, worked on directly
// (Processed counts the violations consumed from the checker so far); the
// dedup set and the governor keep a live form of their own, and the
// embedded Seen/Governor stay nil outside an exported copy.
type resilienceState struct {
	cfg     ResilienceConfig
	dev     *dram.Device
	ctrl    *controller.Controller
	checker *integrity.DeviceAdapter
	gov     *mcr.Governor
	// seen dedups violations per (bank, row): repeated violations of one
	// broken cell are one ECC-correctable fault, not a fresh event.
	seen map[[2]int]bool

	snapshot.ResilienceState

	// obs/tr, when non-nil, receive ECC/quarantine/governor events
	// (nil-safe no-ops otherwise; RunContext attaches them).
	obs *obs.Registry
	tr  *obs.Tracer
}

// modeLabel renders the device's current mode for the stats.
func modeLabel(dev *dram.Device) string {
	if c := dev.Config(); c.Layout.Enabled() {
		return c.Layout.String()
	}
	return dev.Config().Mode.String()
}

// newResilience builds the policy over an attached checker.
func newResilience(cfg ResilienceConfig, dev *dram.Device, ctrl *controller.Controller, checker *integrity.DeviceAdapter) (*resilienceState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &resilienceState{
		cfg: cfg, dev: dev, ctrl: ctrl, checker: checker,
		seen: make(map[[2]int]bool),
	}
	s.Stats.InitialMode = modeLabel(dev)
	if cfg.DowngradeAfter > 0 && dev.SupportsModeChange() {
		startK := 1
		if m := dev.Config().Mode; m.Enabled() {
			startK = m.K
		}
		gcfg := mcr.DefaultGovernorConfig()
		gcfg.DowngradeAfter = cfg.DowngradeAfter
		gov, err := mcr.NewGovernor(gcfg, startK)
		if err != nil {
			// Combined layouts have no single ladder rung; fall back to
			// quarantine-only operation rather than failing the run.
			gov = nil
		}
		s.gov = gov
	}
	return s, nil
}

// poll consumes violations the checker found since the last call and
// reacts: dedup to ECC events, quarantine gangs, step the mode ladder.
func (s *resilienceState) poll(now int64) {
	count := s.checker.Checker().ViolationCount()
	if count == s.Processed {
		return
	}
	vs := s.checker.Violations()[s.Processed:]
	s.Processed = count
	fresh := 0
	for _, v := range vs {
		key := [2]int{v.Bank, v.Row}
		if s.seen[key] {
			continue
		}
		s.seen[key] = true
		fresh++
		if s.Stats.ECCEvents == 0 {
			s.Stats.FirstErrorMs = v.AtMs
		}
		s.Stats.ECCEvents++
		s.obs.Violation()
		s.tr.Emit(obs.Event{TS: now, Kind: obs.EvViolation, Channel: -1, Rank: -1, Bank: int32(v.Bank), Row: int32(v.Row)})
		if s.cfg.Quarantine {
			n := s.dev.Quarantine(v.Row)
			s.Stats.QuarantinedRows += n
			if n > 0 {
				s.obs.Quarantine(n)
				s.tr.Emit(obs.Event{TS: now, Kind: obs.EvQuarantine, Channel: -1, Rank: -1, Bank: int32(v.Bank), Row: int32(v.Row), Arg: int64(n)})
			}
		}
	}
	if fresh == 0 || s.gov == nil {
		return
	}
	if s.gov.RecordViolations(fresh) != mcr.Relax {
		return
	}
	s.tr.Emit(obs.Event{TS: now, Kind: obs.EvGovernor, Channel: -1, Rank: -1, Bank: -1, Row: -1, Arg: int64(fresh)})
	next, err := s.gov.Apply(mcr.Relax, false)
	if err != nil {
		return // already at the safest rung
	}
	if s.ctrl.RequestModeChange(next) != nil {
		return // mode-less backend: quarantine-only degradation
	}
	s.Stats.Downgrades++
	s.tr.Emit(obs.Event{TS: now, Kind: obs.EvModeRequest, Channel: -1, Rank: -1, Bank: -1, Row: -1, Arg: int64(next.K)})
}

// finish runs a final poll (after the checker's end-of-run sweep) and
// seals the stats.
func (s *resilienceState) finish(now int64) *ResilienceStats {
	s.poll(now)
	s.Stats.FinalMode = modeLabel(s.dev)
	if s.Stats.ECCEvents > 0 {
		s.Stats.MTBFMs = core.MemCyclesToNS(now) / 1e6 / float64(s.Stats.ECCEvents)
	}
	out := s.Stats
	return &out
}
