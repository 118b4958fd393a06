package repair_test

// Step 1's rank layers and the DeferCycleBreaking ranking are built on the
// union of their parts. These tests pin both, node for node, to the per-part
// loops they replaced, kept here as references, on the case studies and on
// the random models of fuzz_test.go.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/casestudies"
	"repro/internal/program"
	"repro/internal/repair"
)

// layeredRecoveryPerPart is LayeredRecovery with the acyclic seed and every
// rank layer built part by part and united.
func layeredRecoveryPerPart(c *program.Compiled, invariant, span bdd.Node, availParts []bdd.Node) (rec, ranked bdd.Node) {
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(invariant)
	for _, p := range availParts {
		sc.Keep(p)
	}
	outside := sc.Keep(m.Diff(span, invariant))
	z := sc.Keep(program.CyclicCore(c, availParts, outside))
	acyclic := sc.Keep(m.Diff(outside, z))
	recS := sc.Slot(bdd.False)
	for _, part := range availParts {
		recS.Set(m.Or(recS.Node(), m.And(part, acyclic)))
	}
	rankedS := sc.Slot(m.Or(invariant, acyclic))
	remaining := sc.Slot(z)
	stepS := sc.Slot(bdd.False)
	for remaining.Node() != bdd.False {
		primed := sc.Keep(s.Prime(rankedS.Node()))
		stepS.Set(bdd.False)
		for _, part := range availParts {
			stepS.Set(m.Or(stepS.Node(), m.AndN(part, remaining.Node(), primed)))
		}
		newly := m.AndExists(stepS.Node(), s.ValidTrans(), s.NextCube())
		if newly == bdd.False {
			break
		}
		recS.Set(m.Or(recS.Node(), stepS.Node()))
		rankedS.Set(m.Or(rankedS.Node(), newly))
		remaining.Set(m.Diff(remaining.Node(), newly))
	}
	return recS.Node(), rankedS.Node()
}

// rankViolationsPerPart is repair.RankViolations with bad built part by part
// and united.
func rankViolationsPerPart(c *program.Compiled, parts []bdd.Node, invariant, region bdd.Node) (bad, unranked bdd.Node) {
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	for _, p := range parts {
		sc.Keep(p)
	}
	ranked := sc.Slot(invariant)
	remaining := sc.Slot(region)
	badS := sc.Slot(bdd.False)
	into := sc.Slot(bdd.False)
	for remaining.Node() != bdd.False {
		primed := sc.Keep(s.Prime(ranked.Node()))
		into.Set(bdd.False)
		for _, p := range parts {
			into.Set(m.Or(into.Node(), m.AndExists(p, primed, s.NextCube())))
		}
		newly := sc.Keep(m.And(remaining.Node(), into.Node()))
		if newly == bdd.False {
			break
		}
		notRanked := sc.Keep(m.Not(primed))
		for _, part := range parts {
			badS.Set(m.Or(badS.Node(), m.AndN(part, newly, notRanked)))
		}
		ranked.Set(m.Or(ranked.Node(), newly))
		remaining.Set(m.Diff(remaining.Node(), newly))
	}
	for _, part := range parts {
		badS.Set(m.Or(badS.Node(), m.And(part, remaining.Node())))
	}
	return badS.Node(), remaining.Node()
}

// unionTally counts the non-trivial comparisons of checkUnion.
type unionTally struct {
	layered  int // LayeredRecovery ran at least one rank layer
	pruned   int // LayeredRecovery left some span state unranked
	leaving  int // LayeredRecovery's relation left the span
	bad      int // RankViolations found an edge to remove
	unranked int // RankViolations left some region state unranked
}

// checkUnion compares LayeredRecovery and RankViolations with their per-part
// references on c. LayeredRecovery gets Step 1's recovery parts over Step
// 1's span and over the whole space, each also without the parts' target
// restriction to the span; RankViolations gets Step 2's realized
// parts over Step 1's region and over the whole space outside the
// invariant. Step 1 runs with cycle breaking deferred, as the ranking does
// in production, so recovery stays maximal and cyclic. It reports false
// when Step 1 refuses the model.
func checkUnion(t *testing.T, c *program.Compiled, tally *unionTally) bool {
	t.Helper()
	s := c.Space
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	opts := repair.DefaultOptions()
	opts.Workers = 1
	opts.DeferCycleBreaking = true
	mask, err := repair.AddMasking(context.Background(), c, c.Invariant, c.BadTrans, opts)
	if errors.Is(err, repair.ErrNotRepairable) {
		return false
	}
	if err != nil {
		t.Fatalf("%s: %v", c.Def.Name, err)
	}
	_, mt := repair.ComputeMsMt(c, c.BadTrans)
	sc.Keep(mt)
	s1 := mask.Invariant
	for _, span := range []bdd.Node{mask.FaultSpan, s.ValidCur()} {
		// Step 1's parts end inside the span. The open parts may also leave
		// it, and no rank layer may count such an edge as recovery.
		for _, target := range []bdd.Node{sc.Keep(s.Prime(span)), bdd.True} {
			outsideCtx := sc.Keep(m.AndN(span, target, m.Not(s1), m.Not(mt), m.Not(s.Identity()), s.ValidTrans()))
			parts := make([]bdd.Node, len(c.Procs))
			for j, p := range c.Procs {
				parts[j] = sc.Keep(m.And(p.WriteOK, outsideCtx))
			}
			avail := sc.Keep(m.OrN(parts...))
			wantRec, wantRanked := layeredRecoveryPerPart(c, s1, span, parts)
			sc.Keep(wantRec)
			sc.Keep(wantRanked)
			gotRec, gotRanked := repair.LayeredRecovery(c, s1, span, avail, parts)
			if gotRec != wantRec || gotRanked != wantRanked {
				t.Fatalf("%s: LayeredRecovery on the union: rec %v, ranked %v states; per part: rec %v, ranked %v states",
					c.Def.Name, s.CountTransitions(gotRec), s.CountStates(gotRanked), s.CountTransitions(wantRec), s.CountStates(wantRanked))
			}
			if program.CyclicCore(c, parts, m.Diff(span, s1)) != bdd.False {
				tally.layered++
			}
			if wantRanked != span {
				tally.pruned++
			}
			if !m.Implies(avail, s.Prime(span)) {
				tally.leaving++
			}
		}
	}

	parts := repair.RealizeParts(c, mask.Trans, mask.FaultSpan)
	for _, p := range parts {
		sc.Keep(p)
	}
	realized := sc.Keep(m.OrN(parts...))
	for _, region := range []bdd.Node{sc.Keep(m.Diff(mask.FaultSpan, s1)), sc.Keep(m.Diff(s.ValidCur(), s1))} {
		wantBad, wantUnranked := rankViolationsPerPart(c, parts, s1, region)
		sc.Keep(wantBad)
		sc.Keep(wantUnranked)
		gotBad, gotUnranked := repair.RankViolations(c, parts, realized, s1, region)
		if gotBad != wantBad || gotUnranked != wantUnranked {
			t.Fatalf("%s: RankViolations on the union: bad %v, unranked %v; per part: bad %v, unranked %v",
				c.Def.Name, s.CountTransitions(gotBad), s.CountStates(gotUnranked), s.CountTransitions(wantBad), s.CountStates(wantUnranked))
		}
		if wantBad != bdd.False {
			tally.bad++
		}
		if wantUnranked != bdd.False {
			tally.unranked++
		}
	}
	return true
}

// TestUnionRelationsMatchPerPart: on the case studies and on random models,
// LayeredRecovery and the DeferCycleBreaking ranking built on the union
// relation return the per-part references' nodes.
func TestUnionRelationsMatchPerPart(t *testing.T) {
	var tally unionTally
	for _, d := range []*program.Def{
		casestudies.BA(3),
		casestudies.BAFS(2),
		casestudies.SC(4),
		casestudies.TokenRing(3, 4),
		casestudies.TMR(),
	} {
		if !checkUnion(t, d.MustCompile(), &tally) {
			t.Fatalf("%s: Step 1 refused a case study", d.Name)
		}
	}
	iterations := 60
	if testing.Short() {
		iterations = 20
	}
	rng := rand.New(rand.NewSource(20261018))
	checked := 0
	for i := 0; i < iterations; i++ {
		c, err := randomModel(rng).Compile()
		if err != nil {
			t.Fatalf("iter %d: generator produced invalid model: %v", i, err)
		}
		if checkUnion(t, c, &tally) {
			checked++
		}
	}
	t.Logf("random models checked %d/%d; rank layers %d, pruned spans %d, relations leaving the span %d, bad edges %d, unranked regions %d",
		checked, iterations, tally.layered, tally.pruned, tally.leaving, tally.bad, tally.unranked)
	if tally.layered == 0 || tally.pruned == 0 || tally.leaving == 0 || tally.bad == 0 || tally.unranked == 0 {
		t.Fatal("the corpus left a kind of comparison untested")
	}
}
