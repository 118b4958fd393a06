package repair_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/bdd"
	"repro/internal/casestudies"
	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/symbolic"
)

// This file pins cost thinning's local commit (a trial whose removed
// transitions all start outside the certified span commits without a
// fixpoint) against the exact loop it short-cuts, and checks that the pass
// releases everything it roots when it is interrupted.

// lazyExact runs lazy repair with every thinning trial sent through the
// exact loop: the reference the local commit must match node for node.
func lazyExact(ctx context.Context, c *program.Compiled, opts repair.Options) (*repair.Result, error) {
	*repair.ThinAlwaysExact = true
	defer func() { *repair.ThinAlwaysExact = false }()
	return repair.LazyEngine(ctx, program.NewEngine(c, opts.Workers), opts)
}

// sameResult fails the test unless a and b are the same synthesized program:
// the same relation, invariant and certified span nodes on one manager, and
// the same cost fields. label names the run in the failure.
func sameResult(t *testing.T, label string, a, b *repair.Result) {
	t.Helper()
	if a.Trans != b.Trans || a.Invariant != b.Invariant || a.FaultSpan != b.FaultSpan {
		t.Errorf("%s: nodes differ: trans %d/%d, invariant %d/%d, fault-span %d/%d",
			label, a.Trans, b.Trans, a.Invariant, b.Invariant, a.FaultSpan, b.FaultSpan)
	}
	if a.AchievedCost != b.AchievedCost || a.CostRemoved != b.CostRemoved {
		t.Errorf("%s: costs differ: achieved %g/%g, removed %g/%g",
			label, a.AchievedCost, b.AchievedCost, a.CostRemoved, b.CostRemoved)
	}
}

// spanShrinkModel is the smallest input on which an exact commit shrinks
// the certified span: x ∈ {0,1,2}, invariant x = 0, a fault 0 → 1, and
// 2 → 1 is bad. With the reachability heuristic off, Step 1 keeps every
// recovery transition (1→0, 1→2, 2→0), so the span is all three states;
// thinning drops the class-8 pair {1→2, 2→0}. 1→2 starts in the span, so
// the trial takes the exact loop, which finds x = 2 unreachable and the
// span down to {0, 1}. With the heuristic on, the span is {0, 1} from the
// start and the same trial commits through the exact loop without
// shrinking it.
func spanShrinkModel() *program.Def {
	return &program.Def{
		Name: "span-shrink",
		Vars: []symbolic.VarSpec{{Name: "x", Domain: 3}},
		Processes: []*program.Process{
			{Name: "p", Read: []string{"x"}, Write: []string{"x"}},
		},
		Faults: []program.Action{
			{Name: "hit", Guard: expr.Eq("x", 0), Updates: []program.Update{program.Set("x", 1)}},
		},
		Invariant: expr.Eq("x", 0),
		BadTrans:  expr.And(expr.Eq("x", 2), expr.NextEq("x", 1)),
		CostRules: []program.CostRule{
			{Cost: 8, Pred: expr.And(expr.Eq("x", 1), expr.NextEq("x", 2))},
			{Cost: 8, Pred: expr.And(expr.Eq("x", 2), expr.NextEq("x", 0))},
		},
	}
}

// drawWeights prices every process action of d at a weight in [1,8] drawn
// from rng, on top of the default weight dflt.
func drawWeights(d *program.Def, rng *rand.Rand, dflt int64) *repair.CostModel {
	cm := &repair.CostModel{Default: dflt, Actions: map[string]int64{}}
	for _, p := range d.Processes {
		for _, a := range p.Actions {
			cm.Actions[p.Name+"."+a.Name] = 1 + rng.Int63n(8)
		}
	}
	return cm
}

// TestThinLocalCommitMatchesExact is the differential gate of the local
// commit: on every input and option combination, the default run and the
// all-exact reference return the same nodes and costs, and the returned
// span is the certified span of the returned relation. On the Byzantine
// instances every trial removes transitions outside the span, so thinning
// runs no fixpoint image at all.
func TestThinLocalCommitMatchesExact(t *testing.T) {
	ctx := context.Background()
	inputs := []struct {
		name     string
		def      func() *program.Def
		noImages bool // every trial commits locally
	}{
		{"ba3", func() *program.Def { return casestudies.BA(3) }, true},
		{"bafs2", func() *program.Def { return casestudies.BAFS(2) }, true},
		{"tmr", casestudies.TMR, false},
		{"sc4", func() *program.Def { return casestudies.SC(4) }, false},
		{"ring3", func() *program.Def { return casestudies.TokenRing(3, 4) }, false},
		{"span-shrink", spanShrinkModel, false},
	}
	for _, in := range inputs {
		for _, weighted := range []bool{false, true} {
			for _, deferCycles := range []bool{false, true} {
				for _, heuristic := range []bool{true, false} {
					name := fmt.Sprintf("%s/weighted=%v/defer=%v/heuristic=%v", in.name, weighted, deferCycles, heuristic)
					t.Run(name, func(t *testing.T) {
						d := in.def()
						c, err := d.Compile()
						if err != nil {
							t.Fatal(err)
						}
						opts := repair.DefaultOptions()
						opts.DeferCycleBreaking = deferCycles
						opts.ReachabilityHeuristic = heuristic
						opts.MinimizeCost = true
						opts.Costs = &repair.CostModel{Default: 1}
						if weighted {
							opts.Costs = drawWeights(d, rand.New(rand.NewSource(15)), 1)
						}
						eng := program.NewEngine(c, 1)
						atThin := int64(-1)
						opts.Phasef = func(phase string) {
							if phase == "thin" {
								atThin = eng.FixpointStats().Images
							}
						}
						res, err := repair.LazyEngine(ctx, eng, opts)
						if err != nil {
							t.Fatal(err)
						}
						if atThin < 0 {
							t.Fatal("the thinning phase never started")
						}
						thinImages := eng.FixpointStats().Images - atThin
						opts.Phasef = nil
						ref, err := lazyExact(ctx, c, opts)
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, "local vs all-exact", res, ref)

						m := c.Space.M
						span := c.Space.ReachableParts(res.Invariant, append([]bdd.Node{res.Trans}, c.FaultParts...))
						if span != res.FaultSpan {
							t.Errorf("returned span is not the certified span of the returned relation (%g vs %g states)",
								c.Space.CountStates(res.FaultSpan), c.Space.CountStates(span))
						}
						if in.noImages && thinImages != 0 {
							t.Errorf("thinning ran %d fixpoint image(s), want 0", thinImages)
						}
						if in.name == "span-shrink" {
							if n := c.Space.CountStates(res.FaultSpan); n != 2 {
								t.Errorf("fault-span has %g states after thinning, want 2", n)
							}
							if n := c.Space.CountTransitions(m.AndN(res.Trans, m.Not(res.Invariant), c.Space.ValidTrans())); n != 1 {
								t.Errorf("%g recovery transitions kept, want only 1→0", n)
							}
						}
					})
				}
			}
		}
	}
}

// cancelAfter is a context whose Err returns context.Canceled from its k-th
// call after armed is set, and nil before.
type cancelAfter struct {
	context.Context
	k     int64
	armed atomic.Bool
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.armed.Load() && c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

// TestThinCancellationReleasesScopes interrupts thinning on tmr at each of
// its first twelve cancellation checks — at a process boundary, at a trial's
// loop head, and inside its forward and backward fixpoints — and requires
// the manager to hold the same live nodes after a collection every time:
// nothing the pass rooted outlives the interrupted call.
func TestThinCancellationReleasesScopes(t *testing.T) {
	want := -1
	for k := int64(1); k <= 12; k++ {
		c, err := casestudies.TMR().Compile()
		if err != nil {
			t.Fatal(err)
		}
		m := c.Space.M
		// Threshold interns the terminal v+1 of each class it slices, and
		// terminals live for the manager's life: intern them up front so the
		// count does not depend on how far the pass got.
		for v := int64(2); v <= 9; v++ {
			m.AddConst(v)
		}
		ctx := &cancelAfter{Context: context.Background(), k: k}
		opts := repair.DefaultOptions()
		opts.Costs = &repair.CostModel{Default: 1, Actions: map[string]int64{"copy": 2}}
		opts.MinimizeCost = true
		opts.Phasef = func(phase string) {
			if phase == "thin" {
				ctx.armed.Store(true)
			}
		}
		if _, err := repair.LazyEngine(ctx, program.NewEngine(c, opts.Workers), opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: got %v, want an error wrapping context.Canceled", k, err)
		}
		// Cycle the recent-result ring with terminal-valued results, so only
		// rooted nodes survive the collection.
		for i := 0; i < 1024; i++ {
			m.And(bdd.True, bdd.True)
		}
		m.GC()
		if want < 0 {
			want = m.Size()
		} else if got := m.Size(); got != want {
			t.Errorf("k=%d: %d live nodes after an interrupted thinning pass, want %d", k, got, want)
		}
	}
}
