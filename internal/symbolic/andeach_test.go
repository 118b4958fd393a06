package symbolic

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// andTopDown is the fold AndEach replaced: the accumulator conjoined with
// pred(v) in declaration order, from the top of the initial order down.
func andTopDown(s *Space, pred func(v *Var) bdd.Node) bdd.Node {
	acc := s.M.NewRooted(bdd.True)
	defer acc.Release()
	for _, v := range s.Vars {
		acc.Set(s.M.And(acc.Node(), pred(v)))
	}
	return acc.Node()
}

// TestAndEachMatchesTopDownFold: on random spaces, AndEach over a random
// subset of the variables returns the top-down fold's node, for frames,
// valid ranges and constant assignments, in the declaration order and after
// random SetOrder calls, where the bottom-up order is a different one.
func TestAndEachMatchesTopDownFold(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	iterations := 20
	if testing.Short() {
		iterations = 5
	}
	for it := 0; it < iterations; it++ {
		specs := make([]VarSpec, 2+rng.Intn(6))
		for i := range specs {
			specs[i] = VarSpec{Name: string(rune('a' + i)), Domain: 2 + rng.Intn(4)}
		}
		s := MustNew(specs)
		m := s.M
		for round := 0; round < 3; round++ {
			if round > 0 {
				m.SetOrder(rng.Perm(m.NumVars()))
			}
			in := make([]bool, len(s.Vars))
			val := make([]int, len(s.Vars))
			for i, v := range s.Vars {
				in[i] = rng.Intn(2) == 0
				val[i] = rng.Intn(v.Domain)
			}
			only := func(pred func(v *Var) bdd.Node) func(v *Var) bdd.Node {
				return func(v *Var) bdd.Node {
					if !in[v.Index] {
						return bdd.True
					}
					return pred(v)
				}
			}
			for _, pc := range []struct {
				name string
				pred func(v *Var) bdd.Node
			}{
				{"unchanged", (*Var).Unchanged},
				{"valid cur", func(v *Var) bdd.Node { return v.validRange(v.curLevels) }},
				{"valid next", func(v *Var) bdd.Node { return v.validRange(v.nextLevels) }},
				{"next equals", func(v *Var) bdd.Node { return v.NextEqConst(val[v.Index]) }},
			} {
				for _, p := range []func(v *Var) bdd.Node{pc.pred, only(pc.pred)} {
					want := m.NewRooted(andTopDown(s, p))
					if got := s.AndEach(p); got != want.Node() {
						t.Fatalf("iteration %d round %d %s: AndEach %d nodes, top-down fold %d nodes",
							it, round, pc.name, m.NodeCount(got), m.NodeCount(want.Node()))
					}
					want.Release()
				}
			}
		}
	}
}
