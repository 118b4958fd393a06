package casestudies

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/verify"
)

func repairAndVerify(t *testing.T, d *program.Def, alg func(context.Context, *program.Engine, repair.Options) (*repair.Result, error)) (*program.Compiled, *repair.Result) {
	t.Helper()
	c := d.MustCompile()
	opts := repair.DefaultOptions()
	res, err := alg(context.Background(), program.NewEngine(c, opts.Workers), opts)
	if err != nil {
		t.Fatalf("%s: repair failed: %v", d.Name, err)
	}
	rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%s: verification failed:\n%s", d.Name, rep)
	}
	return c, res
}

func TestBA3LazyVerified(t *testing.T) {
	c, res := repairAndVerify(t, BA(3), repair.LazyEngine)
	s := c.Space
	m := s.M

	// The repaired invariant must retain the fault-free legitimate states:
	// nobody Byzantine, everyone following the general.
	caseA, err := fullFollow(3).Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	caseA = m.And(caseA, s.ValidCur())
	if !m.Implies(caseA, res.Invariant) {
		t.Fatalf("repair dropped %g of %g fault-free legitimate states",
			s.CountStates(m.Diff(caseA, res.Invariant)), s.CountStates(caseA))
	}
	// The fault-intolerant program's normal behavior must survive inside
	// the fault-free invariant: from the all-undecided state the repaired
	// program can still reach the all-finalized state.
	start, _ := s.State(map[string]int{
		"b.g": 0, "d.g": 1,
		"b.0": 0, "d.0": Bot, "f.0": 0,
		"b.1": 0, "d.1": Bot, "f.1": 0,
		"b.2": 0, "d.2": Bot, "f.2": 0,
	})
	if m.And(start, res.Invariant) == bdd.False {
		t.Fatal("all-undecided state not in repaired invariant")
	}
	goal, _ := s.State(map[string]int{
		"b.g": 0, "d.g": 1,
		"b.0": 0, "d.0": 1, "f.0": 1,
		"b.1": 0, "d.1": 1, "f.1": 1,
		"b.2": 0, "d.2": 1, "f.2": 1,
	})
	fwd := s.Reachable(start, res.Trans)
	if m.And(fwd, goal) == bdd.False {
		t.Fatal("repaired program cannot finalize agreement in the absence of faults")
	}
}

// fullFollow is BA's case-A legitimacy: no Byzantine process, every
// non-general undecided or following the general, finalized implies decided.
func fullFollow(n int) expr.Expr {
	out := []expr.Expr{expr.Eq("b.g", 0)}
	for j := 0; j < n; j++ {
		bj := expr.Eq(nameB(j), 0)
		follows := expr.Or(expr.Eq(nameD(j), Bot), expr.EqVar(nameD(j), "d.g"))
		final := expr.Implies(expr.Eq(nameF(j), 1), expr.Ne(nameD(j), Bot))
		out = append(out, bj, follows, final)
	}
	return expr.And(out...)
}

func nameB(j int) string { return "b." + string(rune('0'+j)) }
func nameD(j int) string { return "d." + string(rune('0'+j)) }
func nameF(j int) string { return "f." + string(rune('0'+j)) }

func TestBA3CautiousVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("cautious repair is slow by design")
	}
	c, res := repairAndVerify(t, BA(3), repair.CautiousEngine)
	s := c.Space
	caseA, err := fullFollow(3).Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	caseA = s.M.And(caseA, s.ValidCur())
	if !s.M.Implies(caseA, res.Invariant) {
		t.Fatal("cautious repair dropped fault-free legitimate states")
	}
}

func TestBA2Lazy(t *testing.T) {
	repairAndVerify(t, BA(2), repair.LazyEngine)
}

func TestSC4LazySynthesizesCopyChain(t *testing.T) {
	c, res := repairAndVerify(t, SC(4), repair.LazyEngine)
	s := c.Space
	m := s.M

	// The entire invariant must survive (nothing about the chain is
	// unrepairable).
	if !m.Implies(c.Invariant, res.Invariant) {
		t.Fatal("repair shrank the chain invariant")
	}

	// The synthesized recovery must include copy-from-left: from the state
	// 3,3,7,3 process 2 can set x.2 := x.1.
	from := map[string]int{"fc": 0, "x.0": 3, "x.1": 3, "x.2": 7, "x.3": 3}
	to := map[string]int{"fc": 0, "x.0": 3, "x.1": 3, "x.2": 3, "x.3": 3}
	tr, err := s.Transition(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Implies(tr, res.Trans) {
		t.Fatal("copy-from-left recovery x.2 := x.1 missing")
	}

	// No synthesized transition may write a value other than the left
	// neighbour's (on reachable states): that is the safety spec, so the
	// verifier covers reachable ones; here we additionally check that every
	// transition from the full span obeys it.
	if bad := m.AndN(res.Trans, res.FaultSpan, c.BadTrans); bad != bdd.False {
		t.Fatal("synthesized transitions violate the copy-left discipline")
	}

	// Convergence: from the fully-corrupted-but-reachable span, repeated
	// program steps reach the invariant (verifier checks this too; this is
	// a belt-and-braces direct check from one deep state).
	deep, _ := s.State(map[string]int{"fc": 0, "x.0": 1, "x.1": 2, "x.2": 3, "x.3": 4})
	if m.And(deep, res.FaultSpan) != bdd.False {
		reach := s.Reachable(deep, res.Trans)
		if m.And(reach, res.Invariant) == bdd.False {
			t.Fatal("no recovery path from a multi-corrupted state")
		}
	}
}

func TestSC3Cautious(t *testing.T) {
	if testing.Short() {
		t.Skip("cautious repair is slow by design")
	}
	repairAndVerify(t, SC(3), repair.CautiousEngine)
}

func TestBAFS2Lazy(t *testing.T) {
	c, res := repairAndVerify(t, BAFS(2), repair.LazyEngine)
	s := c.Space
	m := s.M
	// A crashed process must never act: no synthesized transition changes
	// d.j or f.j while up.j = 0.
	for j := 0; j < 2; j++ {
		frozen, err := expr.And(
			expr.Eq("up."+string(rune('0'+j)), 0),
			expr.Or(expr.Changed(nameD(j)), expr.Changed(nameF(j))),
		).Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		if m.AndN(res.Trans, res.FaultSpan, frozen) != bdd.False {
			t.Fatalf("synthesized program moves crashed process %d", j)
		}
	}
}

func TestModelSizes(t *testing.T) {
	cases := []struct {
		def    *program.Def
		states float64
	}{
		{BA(2), 4 * 12 * 12},
		{SC(3), 2 * 10 * 10 * 10},
	}
	for _, tc := range cases {
		c := tc.def.MustCompile()
		if got := c.Space.CountStates(bdd.True); got != tc.states {
			t.Errorf("%s: state space = %g, want %g", tc.def.Name, got, tc.states)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { BA(0) },
		func() { BAFS(0) },
		func() { SC(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid size")
				}
			}()
			f()
		}()
	}
}

func TestOriginalProgramsAreRealizable(t *testing.T) {
	for _, def := range []*program.Def{BA(2), BA(3), BAFS(2), SC(3)} {
		c := def.MustCompile()
		if !c.ProgramRealizable(c.Trans) {
			t.Errorf("%s: fault-intolerant program should be realizable", def.Name)
		}
	}
}
