// Command mcrbench is the repository's benchmark driver.
//
//	mcrbench --workload W --seed N --seconds S --trace 0|1
//
// runs one pass over one workload in this process and prints, as the last
// line of standard output, one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. It exits non-zero when a check fails.
//
// Without --workload it runs every workload, each pass in a child process
// of its own (so peak RSS is per workload), and prints a full record;
// -record FILE also writes it. -selfcheck runs two such sets (and writes
// them to -record FILE, when given) and fails when they disagree; -compare OLD NEW judges two records against the
// bounds in BENCHMARK.json; -update-golden regenerates the committed
// digests. Run it from the repository root (bench/run.sh does).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"

	"repro/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mcrbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload  = flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 12, "how long the end-to-end pass keeps repeating")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		manifest  = flag.String("manifest", "BENCHMARK.json", "benchmark manifest (bounds for -selfcheck and -compare)")
		record    = flag.String("record", "", "all-workloads mode and -selfcheck: also write the record to this file")
		sets      = flag.Int("sets", 1, "all-workloads mode: number of full sets to run")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets and fail if they differ by more than the bounds")
		compare   = flag.Bool("compare", false, "compare two record files: mcrbench -compare OLD NEW")
		update    = flag.Bool("update-golden", false, "regenerate "+bench.GoldenPath)
		full      = flag.Bool("full", false, "with -workload: print the whole result (samples, notes), not only the driver's four keys")
	)
	flag.Parse()
	// Output paths are relative to the repository root; refuse to scatter
	// bench/out directories anywhere else.
	if _, err := os.Stat(*manifest); err != nil {
		return fmt.Errorf("run from the repository root (bench/run.sh does): %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	o := bench.Options{Seed: *seed, Seconds: *seconds}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two record files")
		}
		return compareRecords(*manifest, flag.Arg(0), flag.Arg(1))
	case *update:
		return bench.UpdateGoldens(ctx, bench.GoldenPath)
	case *workload != "":
		return onePass(ctx, *workload, o, *traced, *full)
	case *selfcheck:
		return selfCheck(ctx, *manifest, o, *record)
	}
	rec, err := fullRecord(ctx, o, *sets)
	if err != nil {
		return err
	}
	return emitRecord(rec, *record)
}

// onePass is the driver contract's mode: one pass, one result line with
// exactly the keys correct, attempted, failed and metrics. full prints
// the whole bench.Result instead, which is what the all-workloads mode
// asks of its children.
func onePass(ctx context.Context, name string, o bench.Options, traced int, full bool) error {
	w, err := bench.WorkloadByName(name)
	if err != nil {
		return err
	}
	var res *bench.Result
	switch traced {
	case 0:
		res, err = bench.RunEndToEnd(ctx, w, o)
	case 1:
		res, err = bench.RunTraced(ctx, w, o)
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	if err != nil {
		return err
	}
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "mcrbench:", name+":", n)
	}
	fmt.Fprintf(os.Stderr, "mcrbench: %s seed %d: %d timed samples, %d/%d checks failed\n",
		name, o.Seed, res.Samples, res.Failed, res.Attempted)
	var out any = res
	if !full {
		out = struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]bench.Value `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// childPass runs one pass in a child process and parses its result line.
// CommandContext kills the child when ctx is cancelled; Output waits for
// it either way.
func childPass(ctx context.Context, w bench.Workload, o bench.Options, traced int) (*bench.Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-full",
		"-workload", w.Name, "-seed", strconv.FormatInt(o.Seed, 10),
		"-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	res := &bench.Result{}
	if uerr := json.Unmarshal([]byte(lines[len(lines)-1]), res); uerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", w.Name, traced, err)
		}
		return nil, fmt.Errorf("%s (trace %d): parsing result line: %w", w.Name, traced, uerr)
	}
	// A child that printed a result and exited non-zero failed a check;
	// the result says which, so keep it.
	return res, nil
}

// fullRecord runs n full sets: every workload, tracing off then traced.
// It goes workload by workload, so that the n passes over one workload
// are neighbours in time and a slow quarter-hour of the host separates
// workloads rather than sets.
func fullRecord(ctx context.Context, o bench.Options, n int) (*bench.Record, error) {
	rec := &bench.Record{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: o.Seed, Seconds: o.Seconds, Revision: gitRevision(ctx),
	}
	for i := 0; i < n; i++ {
		rec.Sets = append(rec.Sets, bench.Set{EndToEnd: map[string]*bench.Result{}, PerLayer: map[string]*bench.Result{}})
	}
	for _, w := range bench.Workloads() {
		for _, set := range rec.Sets {
			e2e, err := childPass(ctx, w, o, 0)
			if err != nil {
				return nil, err
			}
			// fail_ratio is printed here and kept in the record; it is not
			// a BENCHMARK.json metric because it is zero on a healthy run.
			e2e.Metrics["fail_ratio"] = bench.Value{Value: float64(e2e.Failed) / float64(e2e.Attempted), Unit: "ratio"}
			set.EndToEnd[w.Name] = e2e
			if set.PerLayer[w.Name], err = childPass(ctx, w, o, 1); err != nil {
				return nil, err
			}
		}
	}
	return rec, nil
}

func gitRevision(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeRecord writes the record to path, or to standard output when path
// is empty.
func writeRecord(rec *bench.Record, path string) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// emitRecord prints the record, also writes it to path when one is given,
// and fails when any pass failed its checks.
func emitRecord(rec *bench.Record, path string) error {
	if path != "" {
		if err := writeRecord(rec, path); err != nil {
			return err
		}
	}
	if err := writeRecord(rec, ""); err != nil {
		return err
	}
	for _, set := range rec.Sets {
		for _, group := range []map[string]*bench.Result{set.EndToEnd, set.PerLayer} {
			for name, res := range group {
				if !res.Correct {
					return fmt.Errorf("%s failed %d of %d checks", name, res.Failed, res.Attempted)
				}
			}
		}
	}
	return nil
}

// selfCheck is the repeatability gate: two full sets of this binary must
// agree — every end-to-end metric within its bound in either direction,
// and everything simulated exactly.
func selfCheck(ctx context.Context, manifestPath string, o bench.Options, recordPath string) error {
	man, err := bench.LoadManifest(manifestPath)
	if err != nil {
		return err
	}
	rec, err := fullRecord(ctx, o, 2)
	if err != nil {
		return err
	}
	if recordPath != "" {
		if err := writeRecord(rec, recordPath); err != nil {
			return err
		}
	}
	first := &bench.Record{Sets: rec.Sets[:1]}
	second := &bench.Record{Sets: rec.Sets[1:]}
	rows := bench.Compare(man, first, second)
	fmt.Print(bench.FormatRows(rows))
	bad := 0
	for _, r := range rows {
		if math.Abs(r.WorseBy) > r.Bound {
			bad++
			fmt.Printf("selfcheck: %s %s differs by %.2f%%, bound %.1f%%\n", r.Workload, r.Metric, r.WorseBy*100, r.Bound*100)
		}
	}
	for _, d := range bench.ExactDiffs(rec.Sets[0], rec.Sets[1]) {
		bad++
		fmt.Println("selfcheck:", d)
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: two sets of the same code disagree in %d places", bad)
	}
	fmt.Println("selfcheck: ok")
	return nil
}

func compareRecords(manifestPath, oldPath, newPath string) error {
	man, err := bench.LoadManifest(manifestPath)
	if err != nil {
		return err
	}
	old, err := bench.LoadRecord(oldPath)
	if err != nil {
		return err
	}
	cur, err := bench.LoadRecord(newPath)
	if err != nil {
		return err
	}
	rows := bench.Compare(man, old, cur)
	fmt.Print(bench.FormatRows(rows))
	if bench.Regressed(rows) {
		return fmt.Errorf("regression beyond the bounds in %s", manifestPath)
	}
	return nil
}
