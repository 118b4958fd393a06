package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/symbolic"
)

// compileLeftFold compiles e with every n-ary And and Or folded from the
// first operand on, the order foldRight replaced.
func compileLeftFold(t *testing.T, s *symbolic.Space, e Expr) bdd.Node {
	t.Helper()
	m := s.M
	fold := func(es []Expr, op func(f, g bdd.Node) bdd.Node, unit bdd.Node) bdd.Node {
		acc := m.NewRooted(unit)
		defer acc.Release()
		for _, sub := range es {
			acc.Set(op(acc.Node(), compileLeftFold(t, s, sub)))
		}
		return acc.Node()
	}
	switch e := e.(type) {
	case andExpr:
		return fold(e, m.And, bdd.True)
	case orExpr:
		return fold(e, m.Or, bdd.False)
	case notExpr:
		return m.Not(compileLeftFold(t, s, e.e))
	case impliesExpr:
		a := m.NewRooted(compileLeftFold(t, s, e.a))
		defer a.Release()
		return m.Imp(a.Node(), compileLeftFold(t, s, e.b))
	default:
		return compile(t, s, e)
	}
}

// randomExpr builds a random expression over s of at most the given depth,
// with n-ary connectives of up to five operands.
func randomExpr(rng *rand.Rand, s *symbolic.Space, depth int) Expr {
	pick := func() *symbolic.Var { return s.Vars[rng.Intn(len(s.Vars))] }
	if depth == 0 || rng.Intn(4) == 0 {
		v, w := pick(), pick()
		switch rng.Intn(7) {
		case 0:
			return Eq(v.Name, rng.Intn(v.Domain))
		case 1:
			return EqVar(v.Name, w.Name)
		case 2:
			return Lt(v.Name, rng.Intn(v.Domain+1))
		case 3:
			return NextEq(v.Name, rng.Intn(v.Domain))
		case 4:
			return NextEqVar(v.Name, w.Name)
		case 5:
			return Changed(v.Name)
		default:
			return []Expr{True, False}[rng.Intn(2)]
		}
	}
	switch rng.Intn(6) {
	case 0:
		return Not(randomExpr(rng, s, depth-1))
	case 1:
		return Implies(randomExpr(rng, s, depth-1), randomExpr(rng, s, depth-1))
	default:
		es := make([]Expr, rng.Intn(6))
		for i := range es {
			es[i] = randomExpr(rng, s, depth-1)
		}
		if rng.Intn(2) == 0 {
			return And(es...)
		}
		return Or(es...)
	}
}

// TestNaryMatchesLeftFold: on random expression trees over random spaces,
// Compile returns the node of the left-folded compile.
func TestNaryMatchesLeftFold(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	spaces := 30
	if testing.Short() {
		spaces = 6
	}
	for sp := 0; sp < spaces; sp++ {
		specs := make([]symbolic.VarSpec, 1+rng.Intn(5))
		for i := range specs {
			specs[i] = symbolic.VarSpec{Name: fmt.Sprintf("v%d", i), Domain: 2 + rng.Intn(4)}
		}
		s := symbolic.MustNew(specs)
		for it := 0; it < 10; it++ {
			e := randomExpr(rng, s, 4)
			want := s.M.NewRooted(compileLeftFold(t, s, e))
			if got := compile(t, s, e); got != want.Node() {
				t.Fatalf("space %d expression %d: %s compiles to %d nodes, the left fold to %d",
					sp, it, e, s.M.NodeCount(got), s.M.NodeCount(want.Node()))
			}
			want.Release()
		}
	}
}
