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
// execute on a bounded worker pool (-jobs, default GOMAXPROCS) with the
// per-workload baselines memoized, and Ctrl-C cancels in-flight
// simulations cleanly. With -checkpoint-dir, every simulation
// periodically snapshots its full state there; a retried attempt or a
// rerun after Ctrl-C resumes from the last snapshot instead of
// restarting from cycle zero.
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
		retries     = flag.Int("retries", 0, "additional attempts for a failed simulation")
		specTimeout = flag.Duration("spec-timeout", 0, "wall-clock bound per simulation attempt (0 = unbounded)")

		ckptDir   = flag.String("checkpoint-dir", "", "write crash-safe periodic snapshots per simulation under this directory; retries and reruns resume from them")
		ckptEvery = flag.Int64("checkpoint-every", 0, "snapshot interval in memory cycles (0 = the executor default; needs -checkpoint-dir)")

		metrics   = flag.Bool("metrics", false, "attach an observability registry per simulation (adds an obs summary to -v progress lines)")
		traceOut  = flag.String("trace-out", "", "write every variant run's command/policy events as one Chrome trace_event JSON file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
	)
	flag.Parse()

	if err := validateMetric(*metric); err != nil {
		fatal(err)
	}
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
		KeepGoing: *keepGoing, Retries: *retries, SpecTimeout: *specTimeout,
		RetryBackoff:  100 * time.Millisecond,
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
		if err := validateExtra(*extra); err != nil {
			fatal(err)
		}
		if err := runExtra(*extra, opt, *metric, *seeds); err != nil {
			fatal(fmt.Errorf("extra %s: %w", *extra, err))
		}
		writeTraces(*traceOut)
		return
	}

	figs := validFigs
	if !*all {
		if *fig == 0 {
			fmt.Fprintln(os.Stderr, "reproduce: pass -fig N, -extra NAME or -all")
			os.Exit(2)
		}
		if err := validateFig(*fig); err != nil {
			fatal(err)
		}
		figs = []int{*fig}
	}
	for _, f := range figs {
		if err := run(f, opt, *metric); err != nil {
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

func run(fig int, opt experiments.Options, metric string) error {
	names := trace.SingleCoreNames()
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
	case 11:
		s, err := experiments.Fig11(opt, names)
		if err != nil {
			return err
		}
		return writeBoth(s, metric)
	case 12:
		s, err := experiments.Fig12(opt, names)
		if err != nil {
			return err
		}
		return writeBoth(s, metric)
	case 13:
		s, err := experiments.Fig13(opt, names)
		if err != nil {
			return err
		}
		return writeBoth(s, metric)
	case 14:
		s, err := experiments.Fig14(opt)
		if err != nil {
			return err
		}
		return writeBoth(s, metric)
	case 15:
		s, err := experiments.Fig15(opt)
		if err != nil {
			return err
		}
		return writeBoth(s, metric)
	case 16:
		s, err := experiments.Fig16(opt)
		if err != nil {
			return err
		}
		return writeBoth(s, metric)
	case 17:
		for _, mc := range []bool{false, true} {
			s, err := experiments.Fig17(opt, mc, names)
			if err != nil {
				return err
			}
			collectTraces(s)
			if err := experiments.WriteSweep(os.Stdout, s, "exec"); err != nil {
				return err
			}
		}
		return nil
	case 18:
		for _, mc := range []bool{false, true} {
			s, err := experiments.Fig18(opt, mc, names)
			if err != nil {
				return err
			}
			collectTraces(s)
			if err := experiments.WriteSweep(os.Stdout, s, "edp"); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown figure %d", fig)
}

// runExtra runs one beyond-the-paper study.
func runExtra(name string, opt experiments.Options, metric string, seeds int) error {
	names := trace.SingleCoreNames()
	switch name {
	case "combined":
		s, err := experiments.CombinedLayout(opt, names)
		if err != nil {
			return err
		}
		return writeBoth(s, metric)
	case "tldram":
		s, err := experiments.TLDRAMComparison(opt, names)
		if err != nil {
			return err
		}
		return writeBoth(s, metric)
	case "shootout":
		r, err := experiments.Shootout(opt, names)
		if err != nil {
			return err
		}
		collectTraces(r.Sweep)
		return experiments.WriteShootout(os.Stdout, r)
	case "wiring", "scheduler", "rowpolicy":
		kind := map[string]experiments.AblationKind{
			"wiring":    experiments.AblationWiring,
			"scheduler": experiments.AblationScheduler,
			"rowpolicy": experiments.AblationRowPolicy,
		}[name]
		s, err := experiments.Ablation(opt, kind, names)
		if err != nil {
			return err
		}
		return writeBoth(s, metric)
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
	return fmt.Errorf("unknown extra study %q", name)
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
