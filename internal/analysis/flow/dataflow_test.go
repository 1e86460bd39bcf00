package flow

import (
	"go/ast"
	"testing"
)

// assignedProblem is a minimal forward may-analysis: the set of
// identifier names that may have been assigned on some path. It
// exercises union joins and the loop fixpoint.
type assignedProblem struct{}

type nameSet map[string]bool

func (assignedProblem) Boundary() nameSet { return nameSet{} }

func (assignedProblem) Clone(s nameSet) nameSet {
	out := make(nameSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (assignedProblem) Join(dst, src nameSet) (nameSet, bool) {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return dst, changed
}

func (p assignedProblem) Transfer(b *Block, in nameSet) nameSet {
	s := p.Clone(in)
	for _, n := range b.Nodes {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				s[id.Name] = true
			}
		}
	}
	return s
}

func TestSolveForwardUnion(t *testing.T) {
	body := parseBody(t, `
a := 1
if c() {
	b := a
	_ = b
} else {
	d := a
	_ = d
}
e := 2
_ = e
`)
	g := New(body)
	sol := Solve[nameSet](g, assignedProblem{})
	out := sol.Out[g.Exit]
	if out == nil {
		t.Fatal("no state at exit")
	}
	for _, want := range []string{"a", "b", "d", "e"} {
		if !out[want] {
			t.Errorf("exit state missing %q: %v", want, out)
		}
	}
}

func TestSolveLoopFixpoint(t *testing.T) {
	// The assignment inside the loop must reach the exit state even
	// though the loop may execute zero times (may-analysis).
	body := parseBody(t, `
for c() {
	x := 1
	_ = x
}
`)
	g := New(body)
	sol := Solve[nameSet](g, assignedProblem{})
	out := sol.Out[g.Exit]
	if out == nil || !out["x"] {
		t.Fatalf("loop body assignment did not reach exit: %v", out)
	}
}
