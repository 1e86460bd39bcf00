// Check enumswitch: switches over the module's closed enums must be
// exhaustive.
//
// The module leans on small named-integer enums for its state machines —
// DRAM command kinds, the governor's ladder decision, observability
// event kinds, snapshot error kinds, mechanism identifiers. A switch
// over one of those that silently falls through a missing case is how a
// new enum member (say, a new mechanism ID) ships half-wired: the
// compiler accepts it, the zero-value branch runs, and the divergence
// surfaces cycles later. This check closes the loop: a switch over a
// module-declared named integer type with at least two declared
// constants must either name every constant value or carry a default
// clause that owns the remainder.
//
// Sentinel constants (a trailing numX count or an explicit *Sentinel)
// are not real members and are not required. Switches with any
// non-constant case expression are out of scope — coverage cannot be
// decided syntactically.

package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// EnumSwitch enforces exhaustive switches over closed module enums.
var EnumSwitch = &Analyzer{
	Name: "enumswitch",
	Doc:  "switches over closed module enums name every constant or carry a default clause",
	Run:  runEnumSwitch,
}

func runEnumSwitch(pass *Pass) {
	if pass.Summaries == nil {
		return // no loader: module membership of an enum's package is unknown
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkEnumSwitch(pass, sw)
			return true
		})
	}
}

func checkEnumSwitch(pass *Pass, sw *ast.SwitchStmt) {
	named := enumTagType(pass, sw.Tag)
	if named == nil {
		return
	}
	members := enumMembers(pass, named)
	if len(members) < 2 {
		return // one constant is a named value, not a closed enum
	}
	covered := map[int64]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // a default clause owns the remainder
		}
		for _, e := range cc.List {
			tv, ok := pass.Info.Types[e]
			if !ok || tv.Value == nil {
				return // dynamic case — coverage undecidable, out of scope
			}
			if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
				covered[v] = true
			}
		}
	}
	var missing []string
	for _, m := range members {
		if !covered[m.val] {
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 {
		pass.Reportf(sw.Pos(),
			"switch over %s is not exhaustive: missing %s; name every constant or add a default clause that owns the remainder",
			named.Obj().Name(), strings.Join(missing, ", "))
	}
}

// enumTagType returns the switch tag's type when it is a module-declared
// named integer — the only shape this check calls an enum.
func enumTagType(pass *Pass, tag ast.Expr) *types.Named {
	t := pass.Info.TypeOf(tag)
	if t == nil {
		return nil
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	b, ok := named.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return nil
	}
	p := named.Obj().Pkg()
	if p == nil || pass.Summaries.Resolve(p.Path()) == nil {
		return nil // declared outside the module
	}
	return named
}

// enumMember is one declared constant of the enum, deduplicated by value
// (aliases like a legacy name for the same value count once).
type enumMember struct {
	name string
	val  int64
}

// enumMembers lists the enum's required constants: every package-scope
// constant of exactly the named type, minus sentinels, one per value.
func enumMembers(pass *Pass, named *types.Named) []enumMember {
	byVal := map[int64]string{}
	for _, c := range enumConsts(named) {
		if isSentinelConst(c.Name()) {
			continue
		}
		v, ok := constant.Int64Val(constant.ToInt(c.Val()))
		if !ok {
			continue
		}
		if prev, dup := byVal[v]; !dup || c.Name() < prev {
			byVal[v] = c.Name()
		}
	}
	out := make([]enumMember, 0, len(byVal))
	for v, name := range byVal {
		out = append(out, enumMember{name: name, val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].val < out[j].val })
	return out
}

// enumConsts returns the package-scope constants declared with exactly
// the named type, sorted by name — the value universe of a closed enum.
func enumConsts(named *types.Named) []*types.Const {
	if named.Obj().Pkg() == nil {
		return nil
	}
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	return out
}

// isSentinelConst reports whether a constant's name marks it as an
// enum-bound sentinel (numCmds, NumStallComponents, kindSentinel),
// excluded from the closed value set a switch must cover.
func isSentinelConst(name string) bool {
	return strings.HasPrefix(name, "num") || strings.HasPrefix(name, "Num") ||
		strings.HasSuffix(name, "Sentinel")
}
