// The generic forward worklist dataflow engine: any lattice expressed
// as a Problem. Blocks start "unreached" — the first fact joined into a
// block is copied, so both may-analyses (union join) and must-analyses
// (intersection join) work without an explicit top element.

package flow

import "go/ast"

// Problem defines one dataflow analysis over a CFG.
type Problem[F any] interface {
	// Boundary is the fact at the entry block.
	Boundary() F
	// Join merges src into dst and reports whether dst changed. dst may
	// be mutated and must be returned.
	Join(dst, src F) (F, bool)
	// Transfer computes the fact leaving a block from the fact entering
	// it. The input must not be mutated; Clone it first.
	Transfer(b *Block, in F) F
	// Clone returns an independent copy of a fact.
	Clone(f F) F
}

// Solution holds the per-block facts of a solved problem: In is the
// fact entering the block, Out the fact leaving it. Unreachable blocks
// stay absent from both maps.
type Solution[F any] struct {
	In  map[*Block]F
	Out map[*Block]F
}

// Solve runs the worklist algorithm to a fixpoint and returns the
// per-block facts.
func Solve[F any](c *CFG, p Problem[F]) *Solution[F] {
	sol := &Solution[F]{In: map[*Block]F{}, Out: map[*Block]F{}}
	sol.In[c.Entry] = p.Clone(p.Boundary())
	work := []*Block{c.Entry}
	inWork := map[*Block]bool{c.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		out := p.Transfer(b, sol.In[b])
		sol.Out[b] = out
		for _, s := range b.Succs {
			cur, seen := sol.In[s]
			var changed bool
			if !seen {
				sol.In[s] = p.Clone(out)
				changed = true
			} else {
				sol.In[s], changed = p.Join(cur, out)
			}
			if changed && !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
	return sol
}

// Shallow walks the node trees a block owns without descending into
// regions the CFG places elsewhere: function-literal bodies (separate
// functions) and the bodies of range/select statements whose block
// structure the CFG already expanded. fn returning false prunes the
// subtree, as with ast.Inspect.
func Shallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			fn(m)
			return false
		case *ast.RangeStmt:
			if !fn(m) {
				return false
			}
			// Key/Value/X are evaluated here; Body has its own blocks.
			walkIf(m.Key, fn)
			walkIf(m.Value, fn)
			walkIf(m.X, fn)
			return false
		case *ast.SelectStmt:
			// The wait itself; comm clauses have their own blocks.
			fn(m)
			return false
		case nil:
			return true
		default:
			return fn(m)
		}
	})
}

func walkIf(n ast.Expr, fn func(ast.Node) bool) {
	if n != nil {
		Shallow(n, fn)
	}
}
