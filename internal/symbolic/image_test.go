package symbolic

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// randStates is a random state set: a union of conjunctions of value tests.
func randStates(s *Space, rng *rand.Rand) bdd.Node {
	m := s.M
	out := bdd.False
	for k := rng.Intn(3) + 1; k > 0; k-- {
		term := s.ValidCur()
		for _, v := range s.Vars {
			switch rng.Intn(3) {
			case 0:
				term = m.And(term, v.EqConst(rng.Intn(v.Domain)))
			case 1:
				term = m.Diff(term, v.EqConst(rng.Intn(v.Domain)))
			}
		}
		out = m.Or(out, term)
	}
	return out
}

// randRelation is a random transition relation: a union of guarded
// commands, each variable set to a constant, copied from another
// variable, left unchanged or left free.
func randRelation(s *Space, rng *rand.Rand) bdd.Node {
	m := s.M
	out := bdd.False
	for k := rng.Intn(3) + 1; k > 0; k-- {
		act := m.And(randStates(s, rng), s.ValidTrans())
		for _, v := range s.Vars {
			switch w := s.Vars[rng.Intn(len(s.Vars))]; rng.Intn(4) {
			case 0:
				act = m.And(act, v.NextEqConst(rng.Intn(v.Domain)))
			case 1:
				act = m.And(act, v.NextEq(w))
			case 2:
				act = m.And(act, v.Unchanged())
			}
		}
		out = m.Or(out, act)
	}
	return out
}

// TestShiftedImagesMatchComposition: Image is the node the renaming
// composition Prime(AndExists(S, T, cur)) builds (the swap is its own
// inverse), and Preimage the node AndExists(T, Prime(S), next) builds, for random state sets and
// relations: on the interleaved order, where both shift, and after random
// orders that separate twins, where both fall back. Under
// REPRO_REORDER_STRESS sifting passes also run at the products' own safe
// points.
func TestShiftedImagesMatchComposition(t *testing.T) {
	s := MustNew([]VarSpec{{"a", 3}, {"b", 4}, {"c", 2}, {"d", 3}})
	m := s.M
	rng := rand.New(rand.NewSource(31))
	separated := 0
	for iter := 0; iter < 60; iter++ {
		if iter >= 30 && iter%6 == 0 {
			m.SetOrder(rng.Perm(m.NumVars()))
			if !twinsAdjacent(s) {
				separated++
			}
		}
		sc := m.Protect()
		states := sc.Keep(randStates(s, rng))
		trans := sc.Keep(randRelation(s, rng))
		if got, want := s.Image(states, trans), s.Prime(m.AndExists(states, trans, s.CurCube())); got != want {
			t.Fatalf("iter %d: Image = %d, Prime(AndExists) = %d", iter, got, want)
		}
		if got, want := s.Preimage(states, trans), m.AndExists(trans, s.Prime(states), s.NextCube()); got != want {
			t.Fatalf("iter %d: Preimage = %d, AndExists(Prime) = %d", iter, got, want)
		}
		sc.Release()
	}
	if separated == 0 {
		t.Fatal("no random order separated a twin: the fallback went untested")
	}
}

// twinsAdjacent reports whether every next-state bit sits directly below
// its current-state twin.
func twinsAdjacent(s *Space) bool {
	level := make([]int, s.M.NumVars())
	for l, id := range s.M.Order() {
		level[id] = l
	}
	for _, v := range s.Vars {
		for b := range v.curLevels {
			if level[v.nextLevels[b]] != level[v.curLevels[b]]+1 {
				return false
			}
		}
	}
	return true
}
