// Package runplan turns a simulation sweep into data: a Plan is an ordered
// list of Spec cells (workload × configuration, each carrying its full
// sim.Config), and an Executor runs a plan on a bounded worker pool.
//
// The executor memoizes every simulation by a canonical configuration key:
// a plan that pairs many variants of one workload with the same MCR-off
// baseline simulates that baseline exactly once, and so is any variant
// config two specs (or two figures folded into one plan) share. Results
// come back in
// spec order regardless of completion order, context cancellation reaches
// the simulator's main loop, and every finished run is reported through a
// race-free instrumentation sink.
package runplan

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Spec is one cell of a plan: a labelled simulation paired with the
// baseline configuration it is compared against.
type Spec struct {
	// Workload labels the row of the figure (a workload or mix name);
	// Config labels the column (the swept configuration).
	Workload string
	Config   string
	// Run is the variant simulation to execute.
	Run sim.Config
	// Baseline is the comparison run. Run and Baseline are memoized alike
	// across the whole plan by canonical config key: every reference to an
	// identical configuration shares one simulation (and any Metrics,
	// Trace or Checkpoint the first reference's config carries), so a spec
	// whose Run equals its Baseline is one simulation.
	Baseline sim.Config
}

// Plan is an ordered set of specs; the executor preserves this order in
// its results no matter how the pool schedules them.
type Plan struct {
	Name  string
	Specs []Spec
}

// AddPair appends a spec compared against a baseline configuration.
func (p *Plan) AddPair(workload, config string, run, baseline sim.Config) {
	p.Specs = append(p.Specs, Spec{Workload: workload, Config: config, Run: run, Baseline: baseline})
}

// ConfigKey returns the canonical identity of a simulation configuration,
// the hex SHA-256 of its JSON encoding, used to memoize runs and to name
// their checkpoint files. Two configs with equal keys produce identical
// results: sim.Run is deterministic in its config (the seed is part of
// it), so sharing one simulation across all specs that reference an equal
// config is sound. The encoding streams into the hash: a plan keys every
// spec, and a key costs no copy of the encoding.
func ConfigKey(cfg sim.Config) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(cfg); err != nil {
		return "", fmt.Errorf("runplan: canonical config key: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
