// Command reproduce regenerates the paper's tables and figures.
//
// Usage:
//
//	reproduce -fig 11              # one figure (8, 10..18) or table (3)
//	reproduce -all                 # everything
//	reproduce -all -jobs 8         # pooled execution, 8 simulations in flight
//	reproduce -fig 11 -insts 2000000 -metric readlat
//	reproduce -all -checkpoint-dir /tmp/ckpt   # crash-safe resumable sweep
//
// Sweeps run through the internal/runplan executor: independent cells
// execute on a bounded worker pool (-jobs, default GOMAXPROCS), and Ctrl-C
// cancels in-flight simulations cleanly. The sweep figures asked for
// (all of Figs 11-18 under -all) are one plan, so each distinct
// configuration — a workload's MCR-off baseline above all — is simulated
// once however many figures compare against it. With -checkpoint-dir,
// every simulation periodically snapshots its full state there and a
// finished one leaves its result; a rerun after a failure, a kill or
// Ctrl-C reuses the finished simulations and resumes the others from
// their last snapshot instead of restarting from cycle zero. Under
// -trace-out a rerun simulates every cell again, since a kept result
// holds no trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/runplan"
	"repro/internal/trace"
)

// collectedTraces accumulates every sweep's event-trace groups when
// -trace-out is set; main writes them as one Chrome trace_event file.
var collectedTraces []obs.TraceGroup

// collectTraces folds one sweep's traces into the collector.
func collectTraces(s *experiments.Sweep) { collectedTraces = append(collectedTraces, s.Traces...) }

// validFigs are the reproducible figure/table numbers.
var validFigs = []int{3, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18}

// validMetrics are the sweep metrics WriteSweep understands.
var validMetrics = []string{"exec", "readlat", "edp"}

// validExtras are the beyond-the-paper studies.
var validExtras = []string{"combined", "tldram", "shootout", "wiring", "scheduler", "rowpolicy", "repeat", "resilience"}

// validateMetric rejects unknown -metric values with the valid choices.
func validateMetric(m string) error {
	for _, v := range validMetrics {
		if m == v {
			return nil
		}
	}
	return fmt.Errorf("unknown metric %q (valid: %s)", m, strings.Join(validMetrics, ", "))
}

// validateFig rejects unknown -fig values with the valid choices.
func validateFig(fig int) error {
	for _, v := range validFigs {
		if fig == v {
			return nil
		}
	}
	var opts []string
	for _, v := range validFigs {
		opts = append(opts, fmt.Sprint(v))
	}
	return fmt.Errorf("unknown figure/table %d (valid: %s)", fig, strings.Join(opts, ", "))
}

// validateExtra rejects unknown -extra values with the valid choices.
func validateExtra(name string) error {
	for _, v := range validExtras {
		if name == v {
			return nil
		}
	}
	return fmt.Errorf("unknown extra study %q (valid: %s)", name, strings.Join(validExtras, ", "))
}

// validateMode rejects a command line that names no study, or names an
// unknown one. -extra wins over -fig and -all, and -all over -fig, so a
// flag that is not read is not checked.
func validateMode(all bool, fig int, extra string) error {
	switch {
	case extra != "":
		return validateExtra(extra)
	case all:
		return nil
	case fig == 0:
		return fmt.Errorf("pass -fig N, -extra NAME or -all")
	}
	return validateFig(fig)
}

// validateSpecTimeout rejects a negative -spec-timeout, which the
// executor would otherwise treat as unbounded.
func validateSpecTimeout(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("-spec-timeout must not be negative, got %v (0 = unbounded)", d)
	}
	return nil
}

// validateJobs rejects a negative -jobs, which the executor would
// otherwise treat as GOMAXPROCS.
func validateJobs(n int) error {
	if n < 0 {
		return fmt.Errorf("-jobs must not be negative, got %d (0 = GOMAXPROCS)", n)
	}
	return nil
}

// validateInsts rejects a negative -insts, which would otherwise fail the
// plan's first simulation, or go unused by -fig 8.
func validateInsts(n int64) error {
	if n < 0 {
		return fmt.Errorf("-insts must not be negative, got %d (0 = default)", n)
	}
	return nil
}

// validateSeeds rejects -seeds below 1 under -extra repeat, which would
// otherwise fail only once the study runs.
func validateSeeds(extra string, n int) error {
	if extra == "repeat" && n < 1 {
		return fmt.Errorf("-seeds must be at least 1 for -extra repeat, got %d", n)
	}
	return nil
}

func main() {
	var (
		fig     = flag.Int("fig", 0, "figure/table number: 3 (Table 3), 8, 10, 11, 12, 13, 14, 15, 16, 17, 18")
		all     = flag.Bool("all", false, "regenerate everything")
		extra   = flag.String("extra", "", `beyond-the-paper study: "combined", "tldram", "shootout", "wiring", "scheduler", "rowpolicy", "repeat" or "resilience"`)
		insts   = flag.Int64("insts", 0, "instructions per core (0 = default)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		seeds   = flag.Int("seeds", 5, "seeds for -extra repeat")
		jobs    = flag.Int("jobs", 0, "simulations in flight (0 = GOMAXPROCS, 1 = serial)")
		metric  = flag.String("metric", "exec", "sweep metric: exec, readlat or edp")
		verbose = flag.Bool("v", false, "print per-simulation progress with throughput stats")

		keepGoing   = flag.Bool("keep-going", false, "record per-cell failures and finish the sweep instead of stopping at the first error")
		specTimeout = flag.Duration("spec-timeout", 0, "wall-clock bound per simulation (0 = unbounded)")

		ckptDir   = flag.String("checkpoint-dir", "", "write crash-safe periodic snapshots per simulation under this directory; reruns reuse finished simulations and resume the others")
		ckptEvery = flag.Int64("checkpoint-every", 0, "snapshot interval in memory cycles (0 = the executor default; needs -checkpoint-dir)")

		metrics   = flag.Bool("metrics", false, "attach an observability registry per simulation (adds an obs summary to -v progress lines)")
		traceOut  = flag.String("trace-out", "", "write every variant run's command/policy events as one Chrome trace_event JSON file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
	)
	flag.Parse()

	if *ckptEvery != 0 && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "reproduce: -checkpoint-every needs -checkpoint-dir")
		flag.Usage()
		os.Exit(2)
	}
	if *ckptEvery < 0 {
		fmt.Fprintf(os.Stderr, "reproduce: -checkpoint-every must be positive, got %d\n", *ckptEvery)
		flag.Usage()
		os.Exit(2)
	}
	for _, err := range []error{validateMode(*all, *fig, *extra), validateMetric(*metric),
		validateJobs(*jobs), validateSpecTimeout(*specTimeout),
		validateInsts(*insts), validateSeeds(*extra, *seeds)} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			flag.Usage()
			os.Exit(2)
		}
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "reproduce: pprof:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := experiments.Options{
		Insts: *insts, Seed: *seed, Jobs: *jobs, Context: ctx,
		KeepGoing: *keepGoing, SpecTimeout: *specTimeout,
		Metrics:       *metrics,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery,
	}
	if *traceOut != "" {
		opt.TraceCap = obs.DefaultTraceCap
	}
	if *verbose {
		if *metrics {
			opt.Progress = runplan.ObsLineSink(os.Stderr)
		} else {
			opt.Progress = runplan.LineSink(os.Stderr)
		}
	}

	if *extra != "" {
		if err := runExtra(*extra, opt, *metric, *seeds); err != nil {
			fatal(fmt.Errorf("extra %s: %w", *extra, err))
		}
		writeTraces(*traceOut)
		return
	}

	figs := validFigs
	if !*all {
		figs = []int{*fig}
	}
	var sweepFigs []int
	for _, f := range figs {
		if f >= 11 {
			sweepFigs = append(sweepFigs, f)
		}
	}
	sweeps, err := experiments.Figures(opt, trace.SingleCoreNames(), sweepFigs...)
	if err != nil {
		fatal(fmt.Errorf("fig %s: %w", strings.Trim(fmt.Sprint(sweepFigs), "[]"), err))
	}
	for _, f := range figs {
		var s []*experiments.Sweep
		if f >= 11 {
			s, sweeps = sweeps[0], sweeps[1:]
		}
		if err := run(f, s, *metric); err != nil {
			fatal(fmt.Errorf("fig %d: %w", f, err))
		}
		fmt.Println()
	}
	writeTraces(*traceOut)
}

// writeTraces exports the collected sweep traces as one Chrome
// trace_event file (one trace-viewer process per sweep cell).
func writeTraces(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := obs.WriteChromeGroups(f, collectedTraces); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	var n, dropped int64
	for _, g := range collectedTraces {
		n, dropped = n+int64(len(g.Events)), dropped+g.Dropped
	}
	fmt.Fprintf(os.Stderr, "reproduce: wrote %d trace events (%d runs) to %s\n", n, len(collectedTraces), path)
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "reproduce: %d of %d events dropped by the trace rings (each run keeps its newest %d)\n", dropped, n+dropped, obs.DefaultTraceCap)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}

// run prints one figure or table; for the sweep figures (11-18) it
// renders the sweeps experiments.Figures returned for it.
func run(fig int, sweeps []*experiments.Sweep, metric string) error {
	switch fig {
	case 3:
		rows, err := experiments.Table3()
		if err != nil {
			return err
		}
		return experiments.WriteTable3(os.Stdout, rows)
	case 8:
		return experiments.WriteFig8(os.Stdout, experiments.Fig8())
	case 10:
		for _, tr := range experiments.Fig10(50, 2.5) {
			fmt.Printf("Fig 10 transient, %dx MCR (t ns, Vbit, Vcell):\n", tr.K)
			for i := range tr.T {
				fmt.Printf("  %6.2f  %6.4f  %6.4f\n", tr.T[i], tr.VBit[i], tr.VCell[i])
			}
		}
		return nil
	case 11, 12, 13, 14, 15, 16:
		return writeBoth(sweeps[0], metric)
	case 17, 18:
		// Single-core, then the quad-core mixes; Fig 17 shows execution
		// time, Fig 18 EDP.
		m := "exec"
		if fig == 18 {
			m = "edp"
		}
		for _, s := range sweeps {
			collectTraces(s)
			if err := experiments.WriteSweep(os.Stdout, s, m); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown figure %d", fig)
}

// runExtra runs one beyond-the-paper study; a sweep extra by its name.
func runExtra(name string, opt experiments.Options, metric string, seeds int) error {
	names := trace.SingleCoreNames()
	switch name {
	case "shootout":
		r, err := experiments.Shootout(opt, names)
		if err != nil {
			return err
		}
		collectTraces(r.Sweep)
		return experiments.WriteShootout(os.Stdout, r)
	case "resilience":
		rows, err := experiments.ResilienceStudy(opt, []string{"tigr", "stream", "comm2"}, nil)
		if len(rows) > 0 {
			if werr := experiments.WriteResilience(os.Stdout, rows); werr != nil {
				return werr
			}
		}
		return err
	case "repeat":
		mode, err := mcr.NewMode(4, 4, 1)
		if err != nil {
			return err
		}
		for _, w := range []string{"tigr", "comm2", "black"} {
			exec, readlat, edp, err := experiments.RepeatedComparison(opt, w, mode, seeds)
			if err != nil {
				return err
			}
			fmt.Printf("%-8s mode [4/4x/100%%reg] exec %% : %v\n", w, exec)
			fmt.Printf("%-8s mode [4/4x/100%%reg] rdlat %%: %v\n", w, readlat)
			fmt.Printf("%-8s mode [4/4x/100%%reg] EDP %%  : %v\n", w, edp)
		}
		return nil
	}
	s, err := experiments.SweepExtra(opt, name, names)
	if err != nil {
		return err
	}
	return writeBoth(s, metric)
}

// writeBoth prints the requested metric, or exec+readlat tables when the
// default is selected (the paper's figures show both). It also folds the
// sweep's event traces into the -trace-out collector.
func writeBoth(s *experiments.Sweep, metric string) error {
	collectTraces(s)
	if metric != "exec" {
		return experiments.WriteSweep(os.Stdout, s, metric)
	}
	if err := experiments.WriteSweep(os.Stdout, s, "exec"); err != nil {
		return err
	}
	return experiments.WriteSweep(os.Stdout, s, "readlat")
}
