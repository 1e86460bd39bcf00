package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Manifest is the part of BENCHMARK.json the harness reads: the workloads,
// the metrics, and the bound by which each end-to-end metric may worsen.
type Manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []BoundedDef  `json:"end_to_end"`
	PerLayer []ManifestDef `json:"per_layer"`
}

// ManifestDef is a metric as BENCHMARK.json declares it.
type ManifestDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// BoundedDef is an end-to-end metric with its regression bound: the share
// of the old median by which the new one may be worse.
type BoundedDef struct {
	ManifestDef
	Bound float64 `json:"bound"`
}

// LoadManifest reads BENCHMARK.json.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &m, nil
}

// Record is one BENCH_*.json: every workload's end-to-end and per-layer
// results from one or more full sets, with what they were measured on.
type Record struct {
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Revision  string  `json:"git_revision"`
	// Sets holds one entry per full pass over all workloads; -selfcheck
	// and -compare read quartiles across them.
	Sets []Set `json:"sets"`
}

// Set is one full pass: per workload, the tracing-off result and the
// traced one.
type Set struct {
	EndToEnd map[string]*Result `json:"end_to_end"`
	PerLayer map[string]*Result `json:"per_layer,omitempty"`
}

// LoadRecord reads a record file.
func LoadRecord(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading record: %w", err)
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if len(r.Sets) == 0 {
		return nil, fmt.Errorf("bench: %s holds no sets", path)
	}
	return &r, nil
}

// values collects one end-to-end metric of one workload across a
// record's sets.
func (r *Record) values(workload, metric string) []float64 {
	var out []float64
	for _, s := range r.Sets {
		if res := s.EndToEnd[workload]; res != nil {
			if v, ok := res.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// Verdict classifies one (workload, metric) pairing of a comparison.
type Verdict string

const (
	Same       Verdict = "same"
	Better     Verdict = "better"
	Regression Verdict = "REGRESSION"
	// Unresolved: each side's quartile range is wider than the bound and
	// the two ranges overlap, so the runs cannot tell a regression within
	// the bound from noise.
	Unresolved Verdict = "unresolved"
)

// Row is one line of a comparison.
type Row struct {
	Workload, Metric string
	Old, New         float64 // medians
	// WorseBy is the share of the old median by which the new one is
	// worse (negative: better).
	WorseBy float64
	Bound   float64
	Verdict Verdict
}

// Compare judges every end-to-end metric of every workload of new against
// old, using the manifest's bounds.
func Compare(man *Manifest, old, new *Record) []Row {
	var rows []Row
	for _, w := range man.Workloads {
		for _, d := range man.EndToEnd {
			ov, nv := old.values(w.Name, d.Name), new.values(w.Name, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			row := Row{Workload: w.Name, Metric: d.Name, Bound: d.Bound}
			row.Old, row.New = median(ov), median(nv)
			row.WorseBy = ratio(row.New-row.Old, math.Abs(row.Old))
			if d.Better == "higher" {
				row.WorseBy = -row.WorseBy
			}
			oq1, oq3 := quantile(ov, 0.25), quantile(ov, 0.75)
			nq1, nq3 := quantile(nv, 0.25), quantile(nv, 0.75)
			spread := math.Max(oq3-oq1, nq3-nq1)
			overlap := oq1 <= nq3 && nq1 <= oq3
			switch {
			case spread > d.Bound*math.Abs(row.Old) && overlap && len(ov) > 1 && len(nv) > 1:
				row.Verdict = Unresolved
			case row.WorseBy > d.Bound:
				row.Verdict = Regression
			case row.WorseBy < -d.Bound:
				row.Verdict = Better
			default:
				row.Verdict = Same
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// Regressed reports whether any row is a regression.
func Regressed(rows []Row) bool {
	for _, r := range rows {
		if r.Verdict == Regression {
			return true
		}
	}
	return false
}

// FormatRows renders a comparison, one workload block after another.
func FormatRows(rows []Row) string {
	var b strings.Builder
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Fprintf(&b, "%s\n", r.Workload)
			last = r.Workload
		}
		fmt.Fprintf(&b, "  %-18s %14.6g -> %-14.6g %+7.2f%% (bound %4.1f%%)  %s\n",
			r.Metric, r.Old, r.New, r.WorseBy*100, r.Bound*100, r.Verdict)
	}
	return b.String()
}

// ExactDiffs lists what must repeat exactly between two sets of the same
// code and seed but does not: sim_ipc, every count of the traced pass,
// and the correctness of every pass.
func ExactDiffs(a, b Set) []string {
	var diffs []string
	for name, ra := range a.EndToEnd {
		rb := b.EndToEnd[name]
		if rb == nil {
			diffs = append(diffs, name+": missing from the second set")
			continue
		}
		if !ra.Correct || !rb.Correct {
			diffs = append(diffs, name+": a pass failed its checks")
		}
		if x, y := ra.Metrics["sim_ipc"].Value, rb.Metrics["sim_ipc"].Value; x != y {
			diffs = append(diffs, fmt.Sprintf("%s: sim_ipc %v vs %v", name, x, y))
		}
	}
	for name, ra := range a.PerLayer {
		rb := b.PerLayer[name]
		if rb == nil {
			diffs = append(diffs, name+": traced pass missing from the second set")
			continue
		}
		if !ra.Correct || !rb.Correct {
			diffs = append(diffs, name+": a traced pass failed its checks")
		}
		for metric, va := range ra.Metrics {
			if va.Unit != "count" && va.Unit != "pp" && metric != "sim.skip_ratio" {
				continue
			}
			if vb := rb.Metrics[metric]; va.Value != vb.Value {
				diffs = append(diffs, fmt.Sprintf("%s: %s %v vs %v", name, metric, va.Value, vb.Value))
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}
