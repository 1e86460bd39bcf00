// Command mcrtrace dumps synthetic workload streams to the compact binary
// trace format and inspects existing trace files.
//
// Usage:
//
//	mcrtrace -dump -workload tigr -insts 1000000 -o tigr.trace
//	mcrtrace -info tigr.trace
//	mcrtrace -head 20 tigr.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/trace"
)

func main() {
	var (
		dump     = flag.Bool("dump", false, "generate a workload and write a trace file")
		workload = flag.String("workload", "tigr", "Table 5 workload name for -dump")
		insts    = flag.Int64("insts", 1_000_000, "instruction budget for -dump")
		seed     = flag.Int64("seed", 1, "generator seed for -dump")
		baseRow  = flag.Int64("base", 0, "base row offset for -dump")
		out      = flag.String("o", "", "output path for -dump")
		info     = flag.Bool("info", false, "print summary statistics of a trace file")
		head     = flag.Int("head", 0, "print the first N records of a trace file")
	)
	flag.Parse()
	if err := validateDumpFlags(*insts, *baseRow); err != nil {
		fmt.Fprintln(os.Stderr, "mcrtrace:", err)
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *dump:
		if *out == "" {
			fatal(fmt.Errorf("-dump needs -o PATH"))
		}
		w, err := trace.ByName(*workload)
		if err != nil {
			fatal(err)
		}
		g, err := trace.New(w, *seed, *insts, *baseRow)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		n, err := trace.WriteAll(f, g)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		st, err := os.Stat(*out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d records (%d bytes, %.1f B/record) to %s\n",
			n, st.Size(), float64(st.Size())/float64(n), *out)

	case *info || *head > 0:
		path := flag.Arg(0)
		if path == "" {
			fatal(fmt.Errorf("pass a trace file path"))
		}
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		recs, err := trace.ReadRecords(f)
		if err != nil {
			fatal(err)
		}
		if *head > 0 {
			for i, r := range recs {
				if i >= *head {
					break
				}
				fmt.Printf("%8d gap=%-6d %-5v line=%d\n", i, r.Gap, r.Kind, r.Line)
			}
			return
		}
		writeInfo(os.Stdout, recs)

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// validateDumpFlags rejects a non-positive -insts (a trace needs
// instructions) and a negative -base (it would write negative lines,
// which a trace file reads back as "no memory access").
func validateDumpFlags(insts, baseRow int64) error {
	if insts <= 0 {
		return fmt.Errorf("-insts must be positive, got %d", insts)
	}
	if baseRow < 0 {
		return fmt.Errorf("-base must not be negative, got %d", baseRow)
	}
	return nil
}

// writeInfo prints the -info summary of a trace's records. A ratio with
// nothing to divide by — no memory records, or no instructions — prints
// as 0.
func writeInfo(w io.Writer, recs []trace.Record) {
	var insts, reads, writes int64
	rows := map[int64]bool{}
	for _, r := range recs {
		insts += int64(r.Gap)
		if r.Line < 0 {
			continue
		}
		insts++
		rows[r.Line/trace.LinesPerRow] = true
		if r.Kind == core.OpRead {
			reads++
		} else {
			writes++
		}
	}
	fmt.Fprintf(w, "records      : %d\n", len(recs))
	fmt.Fprintf(w, "instructions : %d\n", insts)
	fmt.Fprintf(w, "reads/writes : %d / %d (%.1f%% reads)\n", reads, writes, ratio(reads, reads+writes)*100)
	fmt.Fprintf(w, "MPKI         : %.1f\n", ratio(reads+writes, insts)*1000)
	fmt.Fprintf(w, "distinct rows: %d\n", len(rows))
}

// ratio returns n/d, or 0 when d is 0.
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcrtrace:", err)
	os.Exit(1)
}
