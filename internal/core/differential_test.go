package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/symbolic"
	"repro/internal/verify"
	"repro/internal/witness"
)

// TestBackendsAgree is the differential gate between the two verification
// backends: on every built-in case study, the BDD fixpoint engine and the
// SAT/BMC engine must return the same verdict for every check, both on the
// repaired program (everything passes) and on the unrepaired original under
// its original invariant (the safety checks fail — which exercises the SAT
// counterexample path). Every witness either backend attaches must replay
// through the certificate checker, so a disagreement cannot hide behind a
// plausible-looking trace. The unrepaired swap-permutation model adds a deep
// counterexample that both backends must find at its exact length.
func TestBackendsAgree(t *testing.T) {
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
	// Tallied across all cases: the gate is vacuous unless the SAT backend
	// actually searched (some targets are constant-false and answer at depth
	// zero for free) and at least one original produced a counterexample.
	var solverWork int64
	counterexamples := 0
	// verifyOriginal checks the unrepaired program under its own invariant.
	// The fault span is the whole valid state space, so the reachability
	// checks answer the interesting question — can faults drive the original
	// program into the bad set? Where they can, the SAT backend must produce
	// a counterexample trace that certifies (verifyBoth replays every
	// attached witness).
	verifyOriginal := func(t *testing.T, c *program.Compiled) [2]*verify.Report {
		orig := &repair.Result{
			Trans:     c.Trans,
			Invariant: c.Invariant,
			FaultSpan: c.Space.ValidCur(),
		}
		reports := verifyBoth(t, c, orig)
		solverWork += reports[1].SAT.Conflicts + reports[1].SAT.Decisions + reports[1].SAT.Propagations
		if safetyWitness(reports[1]) != nil {
			counterexamples++
		}
		return reports
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			def, err := CaseStudy(tc.name, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			c, err := def.Compile()
			if err != nil {
				t.Fatal(err)
			}
			res, err := repair.Lazy(ctx, c, repair.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}

			// Repaired program: both backends must pass every check.
			repaired := verifyBoth(t, c, res)
			if !repaired[0].OK() || !repaired[1].OK() {
				t.Errorf("repaired result fails verification:\nBDD:\n%s\nSAT:\n%s", repaired[0], repaired[1])
			}
			solverWork += repaired[1].SAT.Conflicts + repaired[1].SAT.Decisions + repaired[1].SAT.Propagations

			// The stabilization models (sc, ring) declare no bad set, so
			// their originals legitimately pass.
			verifyOriginal(t, c)
		})
	}
	// swap(5) unrepaired: the reversed permutation is n(n-1)/2 = 10 adjacent
	// transpositions from the identity, so BDD reachability needs 10
	// frontier layers and the SAT backend 10 unrolled frames.
	t.Run("swap5", func(t *testing.T) {
		const n = 5
		c, err := swapDef(n).Compile()
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range verifyOriginal(t, c) {
			backend := []string{"BDD", "SAT"}[i]
			tr := safetyWitness(rep)
			if tr == nil {
				t.Fatalf("%s backend found no safety counterexample:\n%s", backend, rep)
			}
			// Steps holds the initial state, then one entry per transition.
			if got := len(tr.Steps) - 1; got != n*(n-1)/2 {
				t.Errorf("%s backend: safety counterexample takes %d steps, want %d", backend, got, n*(n-1)/2)
			}
		}
	})
	if solverWork == 0 {
		t.Error("SAT backend recorded no solver work across the whole ladder")
	}
	if counterexamples == 0 {
		t.Error("no original produced a SAT safety counterexample — the gate never exercised the trace decoder")
	}
}

// verifyBoth runs both backends over the same result, asserts the check lists
// agree name-by-name on OK and Warning, certifies every attached witness, and
// returns the two reports (BDD first).
func verifyBoth(t *testing.T, c *program.Compiled, res *repair.Result) [2]*verify.Report {
	t.Helper()
	ctx := context.Background()
	var reports [2]*verify.Report
	for i, backend := range []verify.Backend{verify.BackendBDD, verify.BackendSAT} {
		rep, err := verify.ResultBackendEngine(ctx, program.SerialEngine(c), res, backend, true)
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		reports[i] = rep
		for _, ck := range rep.Checks {
			if ck.Witness == nil {
				continue
			}
			if err := witness.Certify(c, res.Trans, res.Invariant, ck.Witness); err != nil {
				t.Errorf("backend %s: witness for %q does not certify: %v", backend, ck.Name, err)
			}
		}
	}
	if reports[1].SAT == nil {
		t.Fatal("SAT backend attached no solver stats")
	}
	b, s := reports[0], reports[1]
	if len(b.Checks) != len(s.Checks) {
		t.Fatalf("check counts differ: BDD %d, SAT %d", len(b.Checks), len(s.Checks))
	}
	for i := range b.Checks {
		bc, sc := b.Checks[i], s.Checks[i]
		if bc.Name != sc.Name {
			t.Fatalf("check %d name differs: BDD %q, SAT %q", i, bc.Name, sc.Name)
		}
		if bc.OK != sc.OK || bc.Warning != sc.Warning {
			t.Errorf("backends disagree on %q: BDD ok=%v warn=%v (%s), SAT ok=%v warn=%v (%s)",
				bc.Name, bc.OK, bc.Warning, bc.Detail, sc.OK, sc.Warning, sc.Detail)
		}
	}
	// A failed safety check must carry a certified counterexample under both
	// backends (the verifier attaches it to the first failing of the two
	// safety checks): evidence, not an optional extra.
	for _, rep := range reports {
		name := ""
		for _, ck := range rep.Checks {
			if !ck.OK && (ck.Name == "no reachable bad state" || ck.Name == "no reachable bad transition") {
				name = ck.Name
				break
			}
		}
		if name == "" {
			continue
		}
		if !hasWitness(rep, name) {
			t.Errorf("failed check %q carries no witness", name)
		}
	}
	return reports
}

// hasWitness reports whether the named check carries a trace.
func hasWitness(rep *verify.Report, name string) bool {
	for _, ck := range rep.Checks {
		if ck.Name == name {
			return ck.Witness != nil
		}
	}
	return false
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
