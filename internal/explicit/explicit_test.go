package explicit

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/casestudies"
	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/symbolic"
)

// hiddenModel mirrors the repair package's test model: one hidden variable a
// the process cannot read.
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
		BadTrans:  expr.And(expr.Eq("a", 0), expr.NextEq("a", 0), expr.Changed("y")),
	}
}

func mustSystem(t *testing.T, d *program.Def) (*System, *program.Compiled) {
	t.Helper()
	c := d.MustCompile()
	sys, err := FromCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	return sys, c
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sys, _ := mustSystem(t, casestudies.SC(3))
	for s := 0; s < sys.NumStates; s++ {
		if got := sys.Encode(sys.Values(State(s))); got != State(s) {
			t.Fatalf("round trip failed for state %d -> %d", s, got)
		}
	}
}

func TestEnumerationMatchesSymbolicCounts(t *testing.T) {
	for _, d := range []*program.Def{hiddenModel(), casestudies.BA(2), casestudies.SC(3)} {
		sys, c := mustSystem(t, d)
		s := c.Space
		if got, want := float64(len(sys.Invariant)), s.CountStates(c.Invariant); got != want {
			t.Errorf("%s: invariant %v != symbolic %v", d.Name, got, want)
		}
		if got, want := float64(len(sys.Fault)), s.CountTransitions(c.Fault); got != want {
			t.Errorf("%s: faults %v != symbolic %v", d.Name, got, want)
		}
		for j, p := range c.Procs {
			if got, want := float64(len(sys.Proc[j])), s.CountTransitions(p.Trans); got != want {
				t.Errorf("%s: proc %s %v != symbolic %v", d.Name, p.Name, got, want)
			}
		}
		bad := 0
		for from := 0; from < sys.NumStates; from++ {
			for to := 0; to < sys.NumStates; to++ {
				if sys.BadTrans(Trans{State(from), State(to)}) {
					bad++
				}
			}
		}
		if got, want := float64(bad), s.CountTransitions(c.BadTrans); got != want {
			t.Errorf("%s: bad transitions %v != symbolic %v", d.Name, got, want)
		}
	}
}

// TestFromCompiledChain builds a model whose bad-transition set is far too
// large to enumerate: sc(4) has 20,000 states but ~2·10^8 bad pairs.
func TestFromCompiledChain(t *testing.T) {
	sys, c := mustSystem(t, casestudies.SC(4))
	if got, want := float64(sys.NumStates), c.Space.CountStates(c.Space.ValidCur()); got != want {
		t.Fatalf("sc(4): %v states, symbolic %v", got, want)
	}
}

func TestReachableMatchesSymbolic(t *testing.T) {
	for _, d := range []*program.Def{hiddenModel(), casestudies.BA(2), casestudies.SC(3)} {
		sys, c := mustSystem(t, d)
		s := c.Space
		exp := sys.Distances(sys.Invariant, sys.AllProg(), sys.Fault)
		sym := s.ReachableParts(c.Invariant, c.PartsWithFaults(bdd.True))
		if got, want := float64(len(exp)), s.CountStates(sym); got != want {
			t.Errorf("%s: explicit reach %v != symbolic %v", d.Name, got, want)
		}
	}
}

// symbolicTransSet enumerates a symbolic transition predicate into a map.
func symbolicTransSet(sys *System, f bdd.Node) map[Trans]bool {
	out := make(map[Trans]bool)
	sys.fillTrans(f, out)
	return out
}

func TestGroupMatchesSymbolic(t *testing.T) {
	sys, c := mustSystem(t, hiddenModel())
	s := c.Space
	m := s.M
	p := c.Procs[0]
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		from := State(rng.Intn(sys.NumStates))
		to := State(rng.Intn(sys.NumStates))
		tr := Trans{from, to}
		if !sys.WriteLegal(p, tr) {
			continue
		}
		// Build the symbolic transition.
		fv, tv := sys.Values(from), sys.Values(to)
		names := map[string]int{"a": fv[0], "y": fv[1]}
		next := map[string]int{"a": tv[0], "y": tv[1]}
		sTr, err := s.Transition(names, next)
		if err != nil {
			t.Fatal(err)
		}
		symGroup := symbolicTransSet(sys, m.And(p.Group(sTr), s.ValidTrans()))
		expGroup := sys.Group(p, tr)
		if len(symGroup) != len(expGroup) {
			t.Fatalf("group size mismatch: explicit %d symbolic %d", len(expGroup), len(symGroup))
		}
		for _, g := range expGroup {
			if !symGroup[g] {
				t.Fatalf("explicit group member %v not in symbolic group", g)
			}
		}
	}
}

func TestLiteralRealizeMatchesSymbolic(t *testing.T) {
	for _, d := range []*program.Def{hiddenModel(), casestudies.BA(2), casestudies.SC(3)} {
		sys, c := mustSystem(t, d)
		s := c.Space
		m := s.M
		ctx := context.Background()
		e := program.SerialEngine(c)
		mask, err := repair.AddMaskingEngine(ctx, e, c.Invariant, c.BadTrans, repair.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		parts, err := repair.RealizePartsEngine(ctx, e, mask.Trans, mask.FaultSpan)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		symbolicResult := m.OrN(parts...)

		delta := symbolicTransSet(sys, mask.Trans)
		span := make(map[State]bool)
		sys.fillStates(mask.FaultSpan, span)
		expResult, stats := sys.Realize(delta, span, true)

		want := symbolicTransSet(sys, m.And(symbolicResult, s.ValidTrans()))
		if len(expResult) != len(want) {
			t.Fatalf("%s: literal Algorithm 2 produced %d transitions, symbolic %d",
				d.Name, len(expResult), len(want))
		}
		for tr := range expResult {
			if !want[tr] {
				t.Fatalf("%s: literal result has %v, symbolic does not", d.Name, tr)
			}
		}
		if stats.Iterations == 0 {
			t.Fatalf("%s: expected nonzero iterations", d.Name)
		}
	}
}

func TestExpandGroupReducesIterations(t *testing.T) {
	// Experiment E7: on Byzantine agreement, ExpandGroup merges groups that
	// differ only in a readable-but-unwritten variable's value (e.g. a
	// finalize action insensitive to another process's decision), reducing
	// pick-loop iterations without changing the result.
	sys, c := mustSystem(t, casestudies.BA(2))
	mask, err := repair.AddMaskingEngine(context.Background(), program.SerialEngine(c), c.Invariant, c.BadTrans, repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	delta := symbolicTransSet(sys, mask.Trans)
	span := make(map[State]bool)
	sys.fillStates(mask.FaultSpan, span)

	with, withStats := sys.Realize(delta, span, true)
	without, withoutStats := sys.Realize(delta, span, false)

	if len(with) != len(without) {
		t.Fatalf("ExpandGroup changed the result: %d vs %d", len(with), len(without))
	}
	for tr := range with {
		if !without[tr] {
			t.Fatal("ExpandGroup changed the result set")
		}
	}
	if withStats.Expansions == 0 {
		t.Fatal("expected successful expansions on Byzantine agreement")
	}
	if withStats.Iterations >= withoutStats.Iterations {
		t.Fatalf("ExpandGroup did not reduce iterations: %d vs %d",
			withStats.Iterations, withoutStats.Iterations)
	}

	// On the chain the expansion never applies (the expanded variants write
	// a value the specification forbids), and the result is unchanged.
	sysC, cC := mustSystem(t, casestudies.SC(3))
	maskC, err := repair.AddMaskingEngine(context.Background(), program.SerialEngine(cC), cC.Invariant, cC.BadTrans, repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	deltaC := symbolicTransSet(sysC, maskC.Trans)
	spanC := make(map[State]bool)
	sysC.fillStates(maskC.FaultSpan, spanC)
	_, statsC := sysC.Realize(deltaC, spanC, true)
	if statsC.Expansions != 0 {
		t.Fatalf("chain should produce no expansions, got %d", statsC.Expansions)
	}
}

func TestExpandGroupRejectsWrittenVariable(t *testing.T) {
	sys, c := mustSystem(t, hiddenModel())
	p := c.Procs[0]
	// Group of y:1→0 with a=1 (unreadable a unchanged).
	base := Trans{sys.Encode([]int{1, 1}), sys.Encode([]int{1, 0})}
	group := sys.Group(p, base)
	// Expanding over y itself (index 1) must refuse: y changes.
	if got := sys.ExpandGroup(1, group); len(got) != len(group) {
		t.Fatalf("ExpandGroup over a written variable must not grow: %d vs %d", len(got), len(group))
	}
}

func TestCheckMaskingOnRepairedProgram(t *testing.T) {
	for _, d := range []*program.Def{hiddenModel(), casestudies.BA(2), casestudies.SC(3)} {
		sys, c := mustSystem(t, d)
		res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		trans := symbolicTransSet(sys, res.Trans)
		inv := make(map[State]bool)
		sys.fillStates(res.Invariant, inv)
		span := make(map[State]bool)
		sys.fillStates(res.FaultSpan, span)
		for _, v := range sys.CheckMasking(trans, inv, span) {
			if !v.OK && !v.Warning {
				t.Errorf("%s: explicit check %q failed", d.Name, v.Name)
			}
		}
	}
}

// lineModel is a five-state line x ∈ [0,5) for the per-check violations: one
// process that reads and writes x (so every transition is its own group) and
// no actions, invariant x=0, faults 0→1 and 3→4, bad state x=2 and bad
// transition 3→4 — the second fault.
func lineModel() *program.Def {
	return &program.Def{
		Name:      "line",
		Vars:      []symbolic.VarSpec{{Name: "x", Domain: 5}},
		Processes: []*program.Process{{Name: "p", Read: []string{"x"}, Write: []string{"x"}}},
		Faults: []program.Action{
			{Name: "f1", Guard: expr.Eq("x", 0), Updates: []program.Update{program.Set("x", 1)}},
			{Name: "f2", Guard: expr.Eq("x", 3), Updates: []program.Update{program.Set("x", 4)}},
		},
		Invariant: expr.Eq("x", 0),
		BadStates: expr.Eq("x", 2),
		BadTrans:  expr.And(expr.Eq("x", 3), expr.NextEq("x", 4)),
	}
}

// TestCheckMaskingDetectsViolations builds one violation per check by hand
// and requires that exactly that check fails, with the depth of a shortest
// violating computation where it has one. A reachable state can leave the
// fault-span only where the span is not closed or misses part of the
// invariant, so those two cases also fail "reachable within fault-span".
func TestCheckMaskingDetectsViolations(t *testing.T) {
	line, _ := mustSystem(t, lineModel())
	hidden, _ := mustSystem(t, hiddenModel())
	// hidden's states are a + 2y: the process reads y but not a, so its
	// groups pair a=0 with a=1. The fault takes 0 → 3; y=1 → y=0 with a=0
	// (2 → 0) is bad.
	states := func(ss ...State) map[State]bool {
		out := make(map[State]bool)
		for _, s := range ss {
			out[s] = true
		}
		return out
	}
	trans := func(ts ...Trans) map[Trans]bool {
		out := make(map[Trans]bool)
		for _, t := range ts {
			out[t] = true
		}
		return out
	}
	cases := []struct {
		name      string
		sys       *System
		trans     map[Trans]bool
		inv, span map[State]bool
		fails     map[string]int // the failing checks, with their depths
	}{
		{"recovering", line, trans(Trans{1, 0}), states(0), states(0, 1), nil},
		{"empty invariant", line, trans(), states(), states(),
			map[string]int{"invariant nonempty": 0}},
		{"invariant outside the original", line, trans(), states(0, 1), states(0, 1),
			map[string]int{"invariant subset of original": 0}},
		{"new behavior inside the invariant", line, trans(Trans{0, 0}, Trans{1, 0}), states(0), states(0, 1),
			map[string]int{"no new behavior inside invariant": 0}},
		{"invariant not closed", line, trans(Trans{0, 1}, Trans{1, 0}), states(0), states(0, 1),
			map[string]int{"invariant closed in program": 0}},
		{"fault-span not closed under a fault", line, trans(Trans{1, 0}, Trans{3, 0}), states(0), states(0, 1, 3),
			map[string]int{"fault-span closed in program∪fault": 0}},
		{"reachable state outside the fault-span", line, trans(Trans{1, 0}), states(0), states(0),
			map[string]int{"fault-span closed in program∪fault": 0, "reachable within fault-span": 1}},
		{"invariant outside the fault-span", line, trans(), states(0), states(),
			map[string]int{"invariant inside fault-span": 0, "reachable within fault-span": 0}},
		{"reachable bad state", line, trans(Trans{1, 2}, Trans{2, 0}), states(0), states(0, 1, 2),
			map[string]int{"no reachable bad state": 2}},
		{"reachable bad fault transition", line, trans(Trans{1, 3}, Trans{3, 0}, Trans{4, 0}), states(0), states(0, 1, 3, 4),
			map[string]int{"no reachable bad transition": 3}},
		{"deadlock outside the invariant", line, trans(), states(0), states(0, 1),
			map[string]int{"no deadlock outside invariant": 0}},
		{"self-loop livelock", line, trans(Trans{1, 1}), states(0), states(0, 1),
			map[string]int{"no livelock outside invariant": 0}},
		{"incomplete group", hidden, trans(Trans{3, 1}), states(0, 1), states(0, 1, 3),
			map[string]int{"transitions decompose into processes": 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range tc.sys.CheckMasking(tc.trans, tc.inv, tc.span) {
				depth, fails := tc.fails[v.Name]
				if v.OK == fails || v.Depth != depth {
					t.Errorf("%q: ok=%v depth %d, want ok=%v depth %d", v.Name, v.OK, v.Depth, !fails, depth)
				}
			}
		})
	}
}

func TestWriteLegal(t *testing.T) {
	sys, c := mustSystem(t, hiddenModel())
	p := c.Procs[0]
	// Changing y only: legal. Changing a: illegal.
	if !sys.WriteLegal(p, Trans{sys.Encode([]int{0, 1}), sys.Encode([]int{0, 0})}) {
		t.Fatal("y-only change should be write-legal")
	}
	if sys.WriteLegal(p, Trans{sys.Encode([]int{0, 1}), sys.Encode([]int{1, 1})}) {
		t.Fatal("a change should not be write-legal")
	}
}

func TestFromCompiledTooLarge(t *testing.T) {
	// 30 cells of domain 10 is far beyond the enumeration cap.
	c := casestudies.SC(30).MustCompile()
	if _, err := FromCompiled(c); err == nil {
		t.Fatal("expected state-space-too-large error")
	}
}
