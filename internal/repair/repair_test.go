package repair

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bdd"
	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/symbolic"
)

// flipModel is the smallest meaningful repair instance: one bit a, invariant
// a=0, a fault that sets a:=1, and a process that can read and write a but
// has no actions. Repair must invent the recovery transition a:=0.
func flipModel() *program.Def {
	return &program.Def{
		Name: "flip",
		Vars: []symbolic.VarSpec{{Name: "a", Domain: 2}},
		Processes: []*program.Process{
			{Name: "p", Read: []string{"a"}, Write: []string{"a"}},
		},
		Faults: []program.Action{
			{Name: "hit", Guard: expr.Eq("a", 0), Updates: []program.Update{program.Set("a", 1)}},
		},
		Invariant: expr.Eq("a", 0),
	}
}

// hiddenModel exercises read restrictions: variable a is written by the
// fault and invisible to the process p, which can only repair y. The
// recovery group of (a=1,y=1)→(a=1,y=0) contains (a=0,y=1)→(a=0,y=0), which
// the safety spec prohibits — but whose source is unreachable, so lazy
// repair (with the reachability heuristic) completes the group with a free
// transition outside the fault-span, exactly the paper's "case 1".
func hiddenModel() *program.Def {
	return &program.Def{
		Name: "hidden",
		Vars: []symbolic.VarSpec{{Name: "a", Domain: 2}, {Name: "y", Domain: 2}},
		Processes: []*program.Process{
			{Name: "p", Read: []string{"y"}, Write: []string{"y"}},
		},
		Faults: []program.Action{{
			Name:    "corrupt",
			Guard:   expr.And(expr.Eq("a", 0), expr.Eq("y", 0)),
			Updates: []program.Update{program.Set("a", 1), program.Set("y", 1)},
		}},
		Invariant: expr.Eq("y", 0),
		// Changing y while a stays 0 is prohibited.
		BadTrans: expr.And(expr.Eq("a", 0), expr.NextEq("a", 0), expr.Changed("y")),
	}
}

// doomedModel is unrepairable: the fault immediately drives the program into
// a bad state from every legitimate state.
func doomedModel() *program.Def {
	return &program.Def{
		Name: "doomed",
		Vars: []symbolic.VarSpec{{Name: "a", Domain: 3}},
		Processes: []*program.Process{
			{Name: "p", Read: []string{"a"}, Write: []string{"a"}},
		},
		Faults: []program.Action{
			{Name: "kill", Guard: expr.Eq("a", 0), Updates: []program.Update{program.Set("a", 2)}},
		},
		Invariant: expr.Eq("a", 0),
		BadStates: expr.Eq("a", 2),
	}
}

func TestAddMaskingFlip(t *testing.T) {
	c := flipModel().MustCompile()
	mask, err := AddMasking(context.Background(), c, c.Invariant, c.BadTrans, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Space
	if got := s.CountStates(mask.Invariant); got != 1 {
		t.Fatalf("invariant size = %v, want 1", got)
	}
	if got := s.CountStates(mask.FaultSpan); got != 2 {
		t.Fatalf("fault-span size = %v, want 2", got)
	}
	// The repaired transitions must include exactly the recovery a:1→0.
	want, _ := s.Transition(map[string]int{"a": 1}, map[string]int{"a": 0})
	if mask.Trans != want {
		t.Fatalf("trans = %s, want 1→0", s.M.String(mask.Trans))
	}
}

func TestLazyFlip(t *testing.T) {
	c := flipModel().MustCompile()
	res, err := Lazy(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Space
	want, _ := s.Transition(map[string]int{"a": 1}, map[string]int{"a": 0})
	if !s.M.Implies(want, res.Trans) {
		t.Fatal("lazy result lost the recovery transition")
	}
	if res.Stats.OuterIterations != 1 {
		t.Fatalf("expected 1 outer iteration, got %d", res.Stats.OuterIterations)
	}
	if res.Stats.ReachableStates != 2 {
		t.Fatalf("reachable states = %v, want 2", res.Stats.ReachableStates)
	}
}

func TestCautiousFlip(t *testing.T) {
	c := flipModel().MustCompile()
	res, err := Cautious(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Space
	want, _ := s.Transition(map[string]int{"a": 1}, map[string]int{"a": 0})
	if !s.M.Implies(want, res.Trans) {
		t.Fatal("cautious result lost the recovery transition")
	}
}

func TestLazyHiddenUsesFreeTransitions(t *testing.T) {
	c := hiddenModel().MustCompile()
	res, err := Lazy(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Space
	m := s.M
	// Recovery (1,1)→(1,0) must be present…
	rec, _ := s.Transition(map[string]int{"a": 1, "y": 1}, map[string]int{"a": 1, "y": 0})
	if !m.Implies(rec, res.Trans) {
		t.Fatal("recovery transition (a=1,y=1)→(a=1,y=0) missing")
	}
	// …and its group twin (0,1)→(0,0), starting outside the fault-span,
	// must have been added for free to complete the group.
	twin, _ := s.Transition(map[string]int{"a": 0, "y": 1}, map[string]int{"a": 0, "y": 0})
	if !m.Implies(twin, res.Trans) {
		t.Fatal("free group-completing twin (a=0,y=1)→(a=0,y=0) missing")
	}
	// The twin's source is outside the certified fault-span.
	outside, _ := s.State(map[string]int{"a": 0, "y": 1})
	if m.And(outside, res.FaultSpan) != bdd.False {
		t.Fatal("(a=0,y=1) should be outside the fault-span")
	}
}

func TestLazyHiddenWithoutHeuristic(t *testing.T) {
	// Without the reachability heuristic Step 1 works over the full state
	// space. On this model the Add-Masking fixpoint itself prunes the
	// unreachable group-twin source (it cannot recover under write
	// restrictions), so pure lazy still repairs correctly — it just pays
	// for full-space fixpoints, which is the paper's performance point
	// (measured in the ablation benchmarks).
	c := hiddenModel().MustCompile()
	opts := DefaultOptions()
	opts.ReachabilityHeuristic = false
	res, err := Lazy(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Space
	if got := s.CountStates(res.Invariant); got != 2 {
		t.Fatalf("pure lazy invariant = %v states, want 2", got)
	}
	rec, _ := s.Transition(map[string]int{"a": 1, "y": 1}, map[string]int{"a": 1, "y": 0})
	if !s.M.Implies(rec, res.Trans) {
		t.Fatal("pure lazy lost the recovery transition")
	}
}

func TestCautiousHiddenToleratesUnreachableViolation(t *testing.T) {
	// Cautious repair keeps the recovery group because the prohibited
	// member starts from an unreachable state (the Section-IV heuristic).
	c := hiddenModel().MustCompile()
	res, err := Cautious(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Space
	rec, _ := s.Transition(map[string]int{"a": 1, "y": 1}, map[string]int{"a": 1, "y": 0})
	if !s.M.Implies(rec, res.Trans) {
		t.Fatal("cautious lost the recovery transition")
	}
}

func TestDoomedNotRepairable(t *testing.T) {
	c := doomedModel().MustCompile()
	if _, err := Lazy(context.Background(), c, DefaultOptions()); !errors.Is(err, ErrNotRepairable) {
		t.Fatalf("lazy: expected ErrNotRepairable, got %v", err)
	}
	if _, err := Cautious(context.Background(), c, DefaultOptions()); !errors.Is(err, ErrNotRepairable) {
		t.Fatalf("cautious: expected ErrNotRepairable, got %v", err)
	}
}

func TestComputeMsMt(t *testing.T) {
	c := doomedModel().MustCompile()
	ms, mt := ComputeMsMt(c, c.BadTrans)
	s := c.Space
	// ms = {a=2} ∪ {a=0} (fault leads there).
	bad, _ := s.State(map[string]int{"a": 2})
	srcState, _ := s.State(map[string]int{"a": 0})
	m := s.M
	if !m.Implies(bad, ms) || !m.Implies(srcState, ms) {
		t.Fatalf("ms = %s", m.String(ms))
	}
	ok, _ := s.State(map[string]int{"a": 1})
	if m.And(ok, ms) != bdd.False {
		t.Fatal("a=1 should not be in ms")
	}
	// mt contains every transition into ms.
	into := m.And(s.Prime(ms), s.ValidTrans())
	if !m.Implies(into, mt) {
		t.Fatal("mt must contain transitions into ms")
	}
}

func TestRealizeKeepsCompleteGroupsOnly(t *testing.T) {
	c := hiddenModel().MustCompile()
	s := c.Space
	m := s.M
	// Intermediate program: just the recovery (1,1)→(1,0).
	rec, _ := s.Transition(map[string]int{"a": 1, "y": 1}, map[string]int{"a": 1, "y": 0})

	// Span covering both group sources: the group twin is missing from
	// delta and starts inside the span, so the group must die.
	spanBoth := m.Or(mustState(t, s, map[string]int{"a": 1, "y": 1}),
		mustState(t, s, map[string]int{"a": 0, "y": 1}))
	if got := Realize(c, rec, m.Or(spanBoth, c.Invariant)); m.Implies(rec, got) {
		t.Fatal("group-incomplete recovery should have been removed")
	}

	// Span excluding the twin's source: the twin is free, group survives.
	spanOne := m.Or(mustState(t, s, map[string]int{"a": 1, "y": 1}), c.Invariant)
	if got := Realize(c, rec, spanOne); !m.Implies(rec, got) {
		t.Fatal("recovery with free twin should survive")
	}
}

func mustState(t *testing.T, s *symbolic.Space, vals map[string]int) bdd.Node {
	t.Helper()
	st, err := s.State(vals)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLayeredRecoveryIsAcyclic(t *testing.T) {
	// Chain of 4 values: invariant {0}; availability allows k→k-1 and the
	// cycle-inducing k→k+1. Layered recovery must keep only the decreasing
	// edges.
	d := &program.Def{
		Name: "layers",
		Vars: []symbolic.VarSpec{{Name: "v", Domain: 4}},
		Processes: []*program.Process{
			{Name: "p", Read: []string{"v"}, Write: []string{"v"}},
		},
		Invariant: expr.Eq("v", 0),
	}
	c := d.MustCompile()
	s := c.Space
	m := s.M

	avail := bdd.False
	for k := 1; k < 4; k++ {
		down, _ := s.Transition(map[string]int{"v": k}, map[string]int{"v": k - 1})
		avail = m.Or(avail, down)
		if k < 3 {
			up, _ := s.Transition(map[string]int{"v": k}, map[string]int{"v": k + 1})
			avail = m.Or(avail, up)
		}
	}
	span := s.ValidCur()
	rec, ranked := LayeredRecovery(c, c.Invariant, span, avail, []bdd.Node{avail})
	if ranked != span {
		t.Fatal("every state should be ranked")
	}
	// Only the three decreasing edges should be kept.
	if got := s.CountTransitions(rec); got != 3 {
		t.Fatalf("recovery has %v transitions, want 3", got)
	}
	up, _ := s.Transition(map[string]int{"v": 1}, map[string]int{"v": 2})
	if m.And(rec, up) != bdd.False {
		t.Fatal("increasing edge survived — recovery is not acyclic")
	}
}

func TestInvariantDeadlocksAreLegalRests(t *testing.T) {
	// v ∈ {0,1,2}; program: 0→1 only; invariant {0,1}. State 1 deadlocks
	// originally (legal rest) and there are no faults, so repair must keep
	// the invariant intact and change nothing.
	d := &program.Def{
		Name: "rests",
		Vars: []symbolic.VarSpec{{Name: "v", Domain: 3}},
		Processes: []*program.Process{{
			Name: "p", Read: []string{"v"}, Write: []string{"v"},
			Actions: []program.Action{{Guard: expr.Eq("v", 0), Updates: []program.Update{program.Set("v", 1)}}},
		}},
		Invariant: expr.Or(expr.Eq("v", 0), expr.Eq("v", 1)),
	}
	c := d.MustCompile()
	res, err := Lazy(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Invariant != c.Invariant {
		t.Fatal("fault-free repair should keep the invariant unchanged")
	}
	step, _ := c.Space.Transition(map[string]int{"v": 0}, map[string]int{"v": 1})
	if !c.Space.M.Implies(step, res.Trans) {
		t.Fatal("fault-free repair lost the original transition")
	}
}

func TestOptionsLogf(t *testing.T) {
	c := flipModel().MustCompile()
	var lines int
	opts := DefaultOptions()
	opts.Logf = func(string, ...any) { lines++ }
	if _, err := Lazy(context.Background(), c, opts); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("expected log output")
	}
}
