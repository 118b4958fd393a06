package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/explicit"
	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/symbolic"
	"repro/internal/verify"
	"repro/internal/witness"
)

// TestExplicitAgrees is the differential gate between the BDD verifier and
// the explicit-state checker: on every input, explicit.CheckMasking must
// return the verifier's check names in the verifier's order with the same OK
// and Warning flags. The inputs are the case-study ladder's repaired
// programs, their unrepaired originals under the original invariant with the
// whole state space as fault-span (the safety checks fail where faults can
// drive the original into its bad set), and four perturbations of each
// repair: the empty program, the program plus every self-loop and the
// program minus one transition, so that the deadlock, livelock and
// decomposition checks each fail, and the program with every state in its
// fault-span, whose safety holds only from the invariant. Every witness the
// verifier attaches must replay through the certificate checker, and each
// failing safety check's counterexample must show its kind of violation as
// early as the explicit breadth-first search says it can. The unrepaired
// swap-permutation model adds
// a deep counterexample of exactly n(n-1)/2 steps, and the unrepaired
// two-fault model one that only its last-declared fault action can produce.
func TestExplicitAgrees(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		n    int
	}{
		{"ba", 2},
		{"bafs", 2},
		{"sc", 4},
		{"ring", 2},
		{"tmr", 0},
	}
	// Failed checks tallied across all inputs: the gate is vacuous for a
	// check that never fails. ran counts the subtests a -run filter kept.
	failures := make(map[string]int)
	ran := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ran++
			def, err := CaseStudy(tc.name, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			c, err := def.Compile()
			if err != nil {
				t.Fatal(err)
			}
			sys, err := explicit.FromCompiled(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := repair.LazyEngine(ctx, program.NewEngine(c, 0), repair.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if rep := agree(t, sys, res, failures); !rep.OK() {
				t.Errorf("repaired result fails verification:\n%s", rep)
			}
			agree(t, sys, original(c), failures)

			s := c.Space
			m := s.M
			sc := m.Protect()
			defer sc.Release()
			// The lowest transition of the repair, by explicit encoding.
			repaired := make(map[explicit.Trans]bool)
			sys.FillTrans(res.Trans, repaired)
			drop := lowest(repaired)
			move, err := s.Transition(named(sys, drop.From), named(sys, drop.To))
			if err != nil {
				t.Fatal(err)
			}
			sc.Keep(move)
			perturb := func(trans, span bdd.Node) *repair.Result {
				return &repair.Result{Trans: trans, Invariant: res.Invariant, FaultSpan: span}
			}
			for _, r := range []*repair.Result{
				// Every recovery state deadlocks.
				perturb(bdd.False, res.FaultSpan),
				// Self-loops outside the invariant livelock.
				perturb(sc.Keep(m.Or(res.Trans, s.Identity())), res.FaultSpan),
				// The dropped transition's group is incomplete.
				perturb(sc.Keep(m.Diff(res.Trans, move)), res.FaultSpan),
				// Bad states unreachable from the invariant lie in the span.
				perturb(res.Trans, s.ValidCur()),
			} {
				agree(t, sys, r, failures)
			}
		})
	}
	// swap(5) unrepaired: the reversed permutation is n(n-1)/2 = 10 adjacent
	// transpositions from the identity.
	t.Run("swap5", func(t *testing.T) {
		ran++
		const n = 5
		c, err := swapDef(n).Compile()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := explicit.FromCompiled(c)
		if err != nil {
			t.Fatal(err)
		}
		rep := agree(t, sys, original(c), failures)
		tr := safetyWitness(rep)
		if tr == nil {
			t.Fatalf("no safety counterexample:\n%s", rep)
		}
		// Steps holds the initial state, then one entry per transition.
		if got := len(tr.Steps) - 1; got != n*(n-1)/2 {
			t.Errorf("safety counterexample takes %d steps, want %d", got, n*(n-1)/2)
		}
	})
	// Two faults, unrepaired: the bad set lies one step of the last-declared
	// fault away, and the other fault cannot lead there. An extractor that
	// lost a fault action finds no counterexample, which agree reports.
	t.Run("twofaults", func(t *testing.T) {
		ran++
		c, err := twoFaultsDef().Compile()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := explicit.FromCompiled(c)
		if err != nil {
			t.Fatal(err)
		}
		tr := safetyWitness(agree(t, sys, original(c), failures))
		if tr == nil {
			t.Fatal("no safety counterexample")
		}
		if last := tr.Steps[len(tr.Steps)-1]; last.Kind != witness.StepFault || last.By != "corrupt" {
			t.Errorf("safety counterexample ends with a %s step by %q, want the fault corrupt", last.Kind, last.By)
		}
	})
	if ran < len(cases)+2 {
		return
	}
	for _, name := range []string{
		"no reachable bad state",
		"no reachable bad transition",
		"no deadlock outside invariant",
		"no livelock outside invariant",
		"transitions decompose into processes",
	} {
		if failures[name] == 0 {
			t.Errorf("no input fails %q", name)
		}
	}
}

// agree verifies res with the BDD verifier (with witnesses) and the explicit
// checker, requires check-by-check agreement on name, OK and Warning,
// certifies every attached witness, pins each safety counterexample's first
// violation of its check's kind to the explicit distance, tallies the failed
// checks and returns the BDD report.
func agree(t *testing.T, sys *explicit.System, res *repair.Result, failures map[string]int) *verify.Report {
	t.Helper()
	c := sys.C
	rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, true)
	if err != nil {
		t.Fatal(err)
	}
	trans := make(map[explicit.Trans]bool)
	sys.FillTrans(res.Trans, trans)
	inv := make(map[explicit.State]bool)
	sys.FillStates(res.Invariant, inv)
	span := make(map[explicit.State]bool)
	sys.FillStates(res.FaultSpan, span)
	verdicts := sys.CheckMasking(trans, inv, span)

	var names, explicitNames []string
	for _, ck := range rep.Checks {
		names = append(names, ck.Name)
	}
	for _, v := range verdicts {
		explicitNames = append(explicitNames, v.Name)
	}
	if !reflect.DeepEqual(names, explicitNames) {
		t.Fatalf("check names differ:\nBDD:      %q\nexplicit: %q", names, explicitNames)
	}
	depth := make(map[string]int)
	for i, ck := range rep.Checks {
		v := verdicts[i]
		if ck.OK != v.OK || ck.Warning != v.Warning {
			t.Errorf("%q: BDD ok=%v warn=%v (%s), explicit ok=%v warn=%v",
				ck.Name, ck.OK, ck.Warning, ck.Detail, v.OK, v.Warning)
		}
		if !ck.OK {
			failures[ck.Name]++
		}
		depth[ck.Name] = v.Depth
		if ck.Witness == nil {
			continue
		}
		if err := witness.Certify(c, res.Trans, res.Invariant, ck.Witness); err != nil {
			t.Errorf("witness for %q does not certify: %v", ck.Name, err)
		}
	}

	// Every failing safety check carries its own counterexample, aimed at
	// its kind of violation: the trace's first bad state for "no reachable
	// bad state", its first bad transition (into step i) for "no reachable
	// bad transition", at the explicit distance of that kind.
	for _, ck := range rep.Checks {
		badState := ck.Name == "no reachable bad state"
		if ck.OK || !badState && ck.Name != "no reachable bad transition" {
			continue
		}
		if ck.Witness == nil {
			t.Errorf("failed check %q carries no witness", ck.Name)
			continue
		}
		at := -1
		prev := explicit.State(-1)
		for i, st := range ck.Witness.Steps {
			cur := encode(sys, st.State)
			if badState && sys.BadStates[cur] || !badState && i > 0 && sys.BadTrans(explicit.Trans{From: prev, To: cur}) {
				at = i
				break
			}
			prev = cur
		}
		switch {
		case at < 0:
			t.Errorf("%q: counterexample shows no violation of its kind", ck.Name)
		case at != depth[ck.Name]:
			t.Errorf("%q: first violation of its kind at step %d, explicit distance %d", ck.Name, at, depth[ck.Name])
		}
	}
	return rep
}

// original is the unrepaired program under its own invariant, with the whole
// valid state space as fault-span, so the reachability checks ask whether
// faults can drive the original program into its bad set.
func original(c *program.Compiled) *repair.Result {
	return &repair.Result{Trans: c.Trans, Invariant: c.Invariant, FaultSpan: c.Space.ValidCur()}
}

// lowest returns the transition of a non-empty set with the smallest
// (from, to).
func lowest(set map[explicit.Trans]bool) explicit.Trans {
	low, first := explicit.Trans{}, true
	for t := range set {
		if first || t.From < low.From || t.From == low.From && t.To < low.To {
			low, first = t, false
		}
	}
	return low
}

// named converts an explicit state to the named-variable form.
func named(sys *explicit.System, s explicit.State) map[string]int {
	out := make(map[string]int)
	for i, val := range sys.Values(s) {
		out[sys.C.Space.Vars[i].Name] = val
	}
	return out
}

// encode converts a named-variable state to its explicit encoding.
func encode(sys *explicit.System, state map[string]int) explicit.State {
	vals := make([]int, len(sys.C.Space.Vars))
	for i, v := range sys.C.Space.Vars {
		vals[i] = state[v.Name]
	}
	return sys.Encode(vals)
}

// safetyWitness returns the first safety-violation trace attached to a
// check of rep, or nil.
func safetyWitness(rep *verify.Report) *witness.Trace {
	for _, ck := range rep.Checks {
		if ck.Witness != nil && ck.Witness.Kind == witness.KindSafety {
			return ck.Witness
		}
	}
	return nil
}

// swapDef builds the deep-counterexample model: n variables over domain n,
// starting as the identity permutation, with one process that may swap any
// adjacent pair (simultaneous copy of each into the other). The bad set is
// the reversed permutation, whose shortest derivation is n(n-1)/2 adjacent
// transpositions — every inversion must be introduced by its own swap — so
// the counterexample depth grows quadratically while the state space stays
// tiny.
func swapDef(n int) *program.Def {
	d := &program.Def{Name: fmt.Sprintf("swap-%d", n)}
	v := func(i int) string { return fmt.Sprintf("v%d", i) }
	var names []string
	var identity, reversed []expr.Expr
	for i := 0; i < n; i++ {
		d.Vars = append(d.Vars, symbolic.VarSpec{Name: v(i), Domain: n})
		names = append(names, v(i))
		identity = append(identity, expr.Eq(v(i), i))
		reversed = append(reversed, expr.Eq(v(i), n-1-i))
	}
	proc := &program.Process{Name: "swapper", Read: names, Write: names}
	for i := 0; i+1 < n; i++ {
		proc.Actions = append(proc.Actions, program.Action{
			Name:    fmt.Sprintf("swap-%d", i),
			Guard:   expr.True,
			Updates: []program.Update{program.Copy(v(i), v(i+1)), program.Copy(v(i+1), v(i))},
		})
	}
	d.Processes = []*program.Process{proc}
	d.Invariant = expr.And(identity...)
	d.BadStates = expr.And(reversed...)
	return d
}

// twoFaultsDef builds a model with two fault actions of which only the
// last-declared one reaches the bad set: nudge moves x off the invariant,
// which reset repairs, and corrupt sets y, the bad state, which fix
// repairs. Both faults are enabled in the invariant x = y = 0.
func twoFaultsDef() *program.Def {
	return &program.Def{
		Name: "two-faults",
		Vars: []symbolic.VarSpec{{Name: "x", Domain: 2}, {Name: "y", Domain: 2}},
		Processes: []*program.Process{
			{Name: "p", Read: []string{"x", "y"}, Write: []string{"x"}, Actions: []program.Action{
				{Name: "reset", Guard: expr.Eq("x", 1), Updates: []program.Update{program.Set("x", 0)}},
			}},
			{Name: "q", Read: []string{"y"}, Write: []string{"y"}, Actions: []program.Action{
				{Name: "fix", Guard: expr.Eq("y", 1), Updates: []program.Update{program.Set("y", 0)}},
			}},
		},
		Faults: []program.Action{
			{Name: "nudge", Guard: expr.Eq("x", 0), Updates: []program.Update{program.Set("x", 1)}},
			{Name: "corrupt", Guard: expr.Eq("y", 0), Updates: []program.Update{program.Set("y", 1)}},
		},
		Invariant: expr.And(expr.Eq("x", 0), expr.Eq("y", 0)),
		BadStates: expr.Eq("y", 1),
	}
}
