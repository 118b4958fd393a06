package repair_test

// Step 1 cuts each process's inside and outside relations from the
// process's own relation instead of from two global contexts. This test
// pins them, node for node and at every shrink iteration, to the cut of the
// contexts they replaced, kept here as the reference, on the case studies
// and on the random models of fuzz_test.go.

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

// partsTally counts the non-trivial comparisons of checkRecoveryParts.
type partsTally struct {
	iterations int // shrink iterations compared
	shrunk     int // runs with more than one shrink iteration
	inside     int // inside parts that are not empty
	outside    int // outside parts that are not empty
}

// checkRecoveryParts runs AddMasking on c, then the parent's shrink loop,
// which cuts every process's parts from the inside context S1 ∧ S1′ ∧ ¬mt
// and the outside context T1 ∧ T1′ ∧ ¬S1 ∧ ¬mt ∧ ¬id ∧ ValidTrans. At each
// of that loop's iterations it compares repair.RecoveryParts with the cut,
// and at its end the Masking it builds with AddMasking's. It reports false
// when Step 1 refuses the model.
func checkRecoveryParts(t *testing.T, c *program.Compiled, opts repair.Options, tally *partsTally) bool {
	t.Helper()
	ctx := context.Background()
	e := program.SerialEngine(c)
	s := c.Space
	m := s.M
	got, gotErr := repair.AddMasking(ctx, c, c.Invariant, c.BadTrans, opts)
	if gotErr != nil && !errors.Is(gotErr, repair.ErrNotRepairable) {
		t.Fatalf("%s: %v", c.Def.Name, gotErr)
	}

	sc := m.Protect()
	defer sc.Release()
	ms, mt := repair.ComputeMsMt(c, c.BadTrans)
	sc.Keep(ms)
	notMT := sc.Keep(m.Not(mt))
	s1 := sc.Slot(m.Diff(c.Invariant, ms))
	refuse := func() bool {
		if gotErr == nil {
			t.Fatalf("%s: the reference refuses the model, AddMasking does not", c.Def.Name)
		}
		return false
	}
	if s1.Node() == bdd.False {
		return refuse()
	}
	universe := s.ValidCur()
	if opts.ReachabilityHeuristic {
		var err error
		if universe, err = e.ReachableParts(ctx, c.Invariant, c.PartsWithFaults(notMT)); err != nil {
			t.Fatal(err)
		}
	}
	t1 := sc.Slot(m.Diff(universe, ms))
	slots := make([]*bdd.Rooted, 2*len(c.Procs))
	for i := range slots {
		slots[i] = sc.Slot(bdd.False)
	}
	inside, outside, rec := sc.Slot(bdd.False), sc.Slot(bdd.False), sc.Slot(bdd.False)
	t2 := sc.Slot(bdd.False)
	iterations := 0
	for {
		iterations++
		parts := repair.RecoveryParts(c, slots, s1.Node(), t1.Node(), notMT)
		isc := m.Protect()
		insideCtx := isc.Keep(m.AndN(s1.Node(), s.Prime(s1.Node()), notMT))
		outsideCtx := isc.Keep(m.AndN(t1.Node(), s.Prime(t1.Node()), m.Not(s1.Node()), notMT, m.Not(s.Identity()), s.ValidTrans()))
		inside.Set(bdd.False)
		outside.Set(bdd.False)
		for i, p := range c.Procs {
			if in := m.And(p.Trans, insideCtx); parts[2*i] != in {
				t.Fatalf("%s, iteration %d, %s: inside part %v transitions, cut of the context %v",
					c.Def.Name, iterations, p.Name, s.CountTransitions(parts[2*i]), s.CountTransitions(in))
			}
			if out := m.And(p.WriteOK, outsideCtx); parts[2*i+1] != out {
				t.Fatalf("%s, iteration %d, %s: outside part %v transitions, cut of the context %v",
					c.Def.Name, iterations, p.Name, s.CountTransitions(parts[2*i+1]), s.CountTransitions(out))
			}
			if parts[2*i] != bdd.False {
				tally.inside++
			}
			if parts[2*i+1] != bdd.False {
				tally.outside++
			}
			inside.Set(m.Or(inside.Node(), parts[2*i]))
			outside.Set(m.Or(outside.Node(), parts[2*i+1]))
		}
		isc.Release()
		tally.iterations++

		back, err := e.BackwardReachableParts(ctx, s1.Node(), parts)
		if err != nil {
			t.Fatal(err)
		}
		t2.Set(m.And(t1.Node(), back))
		esc, err := e.BackwardReachableParts(ctx, m.Diff(s.ValidCur(), t2.Node()), c.FaultParts)
		if err != nil {
			t.Fatal(err)
		}
		t2.Set(m.Diff(t2.Node(), esc))
		s2 := m.And(s1.Node(), t2.Node())
		if s2 == bdd.False {
			return refuse()
		}
		if s2 != s1.Node() || t2.Node() != t1.Node() {
			s1.Set(s2)
			t1.Set(t2.Node())
			continue
		}
		if opts.DeferCycleBreaking {
			rec.Set(outside.Node())
			break
		}
		outsideParts := make([]bdd.Node, len(c.Procs))
		for i := range outsideParts {
			outsideParts[i] = parts[2*i+1]
		}
		r, ranked := repair.LayeredRecovery(c, s1.Node(), t1.Node(), outside.Node(), outsideParts)
		rec.Set(r)
		if ranked != t1.Node() {
			t1.Set(ranked)
			continue
		}
		break
	}
	if gotErr != nil {
		t.Fatalf("%s: AddMasking refuses the model, the reference does not: %v", c.Def.Name, gotErr)
	}
	if trans := m.Or(inside.Node(), rec.Node()); got.Trans != trans || got.Invariant != s1.Node() ||
		got.FaultSpan != t1.Node() || got.Iterations != iterations {
		t.Fatalf("%s: AddMasking returns %v transitions, %v invariant and %v span states in %d iterations; the reference %v, %v and %v in %d",
			c.Def.Name, s.CountTransitions(got.Trans), s.CountStates(got.Invariant), s.CountStates(got.FaultSpan), got.Iterations,
			s.CountTransitions(trans), s.CountStates(s1.Node()), s.CountStates(t1.Node()), iterations)
	}
	if iterations > 1 {
		tally.shrunk++
	}
	return true
}

// TestRecoveryPartsMatchContexts: on the case studies and on random models,
// with cycles broken in Step 1, deferred, and without the reachability
// heuristic (whose larger first span shrinks more often), every shrink
// iteration's per-process parts are the cuts of the global contexts, and
// Step 1's result is the reference loop's.
func TestRecoveryPartsMatchContexts(t *testing.T) {
	var tally partsTally
	deferred := repair.DefaultOptions()
	deferred.DeferCycleBreaking = true
	unrestricted := repair.DefaultOptions()
	unrestricted.ReachabilityHeuristic = false
	variants := []repair.Options{repair.DefaultOptions(), deferred, unrestricted}
	for _, d := range []*program.Def{
		casestudies.BA(3),
		casestudies.BAFS(2),
		casestudies.SC(4),
		casestudies.TokenRing(3, 4),
		casestudies.TMR(),
	} {
		for _, opts := range variants {
			if !checkRecoveryParts(t, d.MustCompile(), opts, &tally) {
				t.Fatalf("%s: Step 1 refused a case study", d.Name)
			}
		}
	}
	iterations := 60
	if testing.Short() {
		iterations = 20
	}
	rng := rand.New(rand.NewSource(20261019))
	checked := 0
	for i := 0; i < iterations; i++ {
		d := randomModel(rng)
		for _, opts := range variants {
			c, err := d.Compile()
			if err != nil {
				t.Fatalf("iter %d: generator produced invalid model: %v", i, err)
			}
			if checkRecoveryParts(t, c, opts, &tally) {
				checked++
			}
		}
	}
	t.Logf("random runs checked %d/%d; shrink iterations %d, runs that shrank %d, inside parts %d, outside parts %d",
		checked, len(variants)*iterations, tally.iterations, tally.shrunk, tally.inside, tally.outside)
	if tally.shrunk == 0 || tally.inside == 0 || tally.outside == 0 {
		t.Fatal("the corpus left a kind of comparison untested")
	}
}
