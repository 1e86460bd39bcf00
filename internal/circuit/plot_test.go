package circuit

import "testing"

func TestPlotTransients(t *testing.T) {
	p := Default()
	trs := []*Transient{p.Simulate(1, 40, 1), p.Simulate(4, 40, 1)}
	out := PlotTransients(trs, func(tr *Transient) []float64 { return tr.VBit }, 12, p.VDD)
	if out == "" {
		t.Fatal("empty plot")
	}
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != 12+2 { // height rows + axis + label
		t.Fatalf("plot has %d lines, want 14", lines)
	}
	// Both glyphs appear.
	if !containsByte(out, '1') || !containsByte(out, '4') {
		t.Fatal("both series must be plotted")
	}
	// Degenerate inputs return empty.
	if PlotTransients(nil, nil, 12, p.VDD) != "" {
		t.Fatal("no series must render nothing")
	}
	if PlotTransients(trs, func(tr *Transient) []float64 { return tr.VBit }, 2, p.VDD) != "" {
		t.Fatal("tiny heights must render nothing")
	}
}

func containsByte(s string, b byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return true
		}
	}
	return false
}
