package bench

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// GoldenSeeds are the seeds with committed digests. 7 is the hold-out: a
// later claim measured while iterating on seed 1 must also pass on it.
var GoldenSeeds = []int64{1, 7}

// GoldenPath is where -update-golden writes, relative to the repository
// root.
const GoldenPath = "bench/golden/digests.json"

//go:embed golden/digests.json
var goldenJSON []byte

// Goldens maps workload name → decimal seed → result digest, at the
// default budgets.
type Goldens map[string]map[string]string

func loadGoldens() (Goldens, error) {
	var g Goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: parsing embedded goldens: %w", err)
	}
	return g, nil
}

// golden returns the committed digest for a pass, if one applies: only
// default-budget, full-list runs on a golden seed have one.
func golden(w Workload, o Options) (string, bool, error) {
	if o.Insts > 0 || len(o.SweepNames) > 0 {
		return "", false, nil
	}
	g, err := loadGoldens()
	if err != nil {
		return "", false, err
	}
	d, ok := g[w.Name][strconv.FormatInt(o.Seed, 10)]
	return d, ok, nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// DigestResult is the SHA-256 of a run's JSON with everything that is
// host time or engine bookkeeping zeroed: Wall, and the obs snapshot's
// stepped/skipped cycle split (the one simulated-looking field that
// legitimately differs between the two engines).
func DigestResult(res *sim.Result) (string, error) {
	c := *res
	c.Wall = 0
	if c.Obs != nil {
		o := *c.Obs
		o.EngineSteppedCycles, o.EngineSkippedCycles = 0, 0
		c.Obs = &o
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("bench: marshalling result: %w", err)
	}
	return sha(b), nil
}

// DigestSweep is the SHA-256 of a sweep's rendered points.
func DigestSweep(s *experiments.Sweep) (string, error) {
	b, err := json.Marshal(s.Points)
	if err != nil {
		return "", fmt.Errorf("bench: marshalling sweep: %w", err)
	}
	return sha(b), nil
}

// UpdateGoldens regenerates the committed digests for GoldenSeeds at the
// default budgets and writes them to path. It refuses unless the
// event-driven run and the independent reference (Stepped engine; the
// sweep: serial pool) agree on every one.
func UpdateGoldens(ctx context.Context, path string) error {
	g := Goldens{}
	for _, w := range Workloads() {
		g[w.Name] = map[string]string{}
		for _, seed := range GoldenSeeds {
			o, err := Options{Seed: seed}.prepared()
			if err != nil {
				return err
			}
			run := singleRep
			if w.Sweep {
				run = sweepRep
			}
			got, err := run(ctx, w, o, false)
			if err != nil {
				return err
			}
			ref, err := run(ctx, w, o, true)
			if err != nil {
				return err
			}
			if got.digest != ref.digest {
				return fmt.Errorf("bench: %s seed %d: digest %s, reference run %s: refusing to write goldens", w.Name, seed, got.digest, ref.digest)
			}
			g[w.Name][strconv.FormatInt(seed, 10)] = got.digest
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
