package program_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/casestudies"
	"repro/internal/program"
	"repro/internal/repair"
)

// closureCases are the case studies the closure and peel comparisons run
// on: one instance of each family, small enough for the GC-stress CI step.
func closureCases() []*program.Def {
	return []*program.Def{
		casestudies.BA(3),
		casestudies.BAFS(2),
		casestudies.SC(4),
		casestudies.TokenRing(3, 4),
		casestudies.TMR(),
	}
}

// stepRelations returns the relations Step 1 and Step 2 hand the closure
// and the peel on c: Step 1's output (with cycle breaking deferred, so
// recovery stays maximal) plus the free transitions outside its span, the
// per-process Step-1 recovery parts (as AddMasking builds them), and
// Step 2's realized parts. Everything returned is rooted in sc.
func stepRelations(t *testing.T, c *program.Compiled, sc *bdd.Scope) (candidate bdd.Node, region bdd.Node, recovery, realized []bdd.Node) {
	t.Helper()
	s := c.Space
	m := s.M
	opts := repair.DefaultOptions()
	opts.Workers = 1
	opts.DeferCycleBreaking = true
	ctx := context.Background()
	e := program.SerialEngine(c)
	mask, err := repair.AddMaskingEngine(ctx, e, c.Invariant, c.BadTrans, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.Def.Name, err)
	}
	_, mt, err := repair.ComputeMsMtEngine(ctx, e, c.BadTrans)
	if err != nil {
		t.Fatalf("%s: %v", c.Def.Name, err)
	}
	sc.Keep(mt)
	s1, t1 := mask.Invariant, mask.FaultSpan
	region = sc.Keep(m.Diff(t1, s1))
	free := m.And(m.Not(t1), s.ValidTrans())
	candidate = sc.Keep(m.Or(m.And(mask.Trans, s.ValidTrans()), free))
	outsideCtx := sc.Keep(m.AndN(t1, s.Prime(t1), m.Not(s1), m.Not(mt), m.Not(s.Identity()), s.ValidTrans()))
	for _, p := range c.Procs {
		recovery = append(recovery, sc.Keep(m.And(p.WriteOK, outsideCtx)))
	}
	parts, err := repair.RealizePartsEngine(ctx, e, mask.Trans, mask.FaultSpan)
	if err != nil {
		t.Fatalf("%s: %v", c.Def.Name, err)
	}
	for _, p := range parts {
		realized = append(realized, sc.Keep(p))
	}
	return candidate, region, recovery, realized
}

// TestMaxRealizableSubsetMatchesGroupReferenceOnCaseStudies: on each case
// study, the closed form returns the Group-based reference's node for
// random deltas and for Step 2's own candidate relation.
func TestMaxRealizableSubsetMatchesGroupReferenceOnCaseStudies(t *testing.T) {
	var tally program.ClosureTally
	for i, d := range closureCases() {
		c := d.MustCompile()
		sc := c.Space.M.Protect()
		candidate, _, _, _ := stepRelations(t, c, sc)
		program.CheckMaxRealizable(t, c, rand.New(rand.NewSource(int64(i))), &tally, candidate)
		sc.Release()
	}
	program.RequireTally(t, tally)
}

// TestCyclicCorePeelMatchesPerPartOnCaseStudies: on each case study, the
// union peel returns the per-part reference's core for the processes'
// relations, random relations, Step 1's recovery parts and Step 2's
// realized parts.
func TestCyclicCorePeelMatchesPerPartOnCaseStudies(t *testing.T) {
	cyclic := 0
	for i, d := range closureCases() {
		c := d.MustCompile()
		sc := c.Space.M.Protect()
		_, region, recovery, realized := stepRelations(t, c, sc)
		cyclic += program.CheckPeel(t, c, rand.New(rand.NewSource(int64(i))), region, recovery, realized)
		sc.Release()
	}
	t.Logf("non-empty cores: %d", cyclic)
	if cyclic == 0 {
		t.Fatal("no comparison had a non-empty core")
	}
}
