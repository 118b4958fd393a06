package repair_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/symbolic"
	"repro/internal/verify"
)

// This file property-tests the whole repair pipeline on randomly generated
// repair problems: for every generated model, each algorithm must either
// refuse cleanly (ErrNotRepairable / ErrNoConvergence) or produce a program
// that passes the independent verifier. This is the central soundness
// property of the toolkit.

// randomModel builds a random but well-formed repair problem:
//   - 2–4 variables with domains 2–3,
//   - 1–3 processes with random read sets (W ⊆ R enforced),
//   - random guarded-command actions over readable variables,
//   - 1–2 fault actions,
//   - an invariant derived from the program's actual closure so the premise
//     "P refines SPEC from S" is plausible,
//   - optional random bad states / bad transitions.
func randomModel(rng *rand.Rand) *program.Def {
	nVars := 2 + rng.Intn(3)
	d := &program.Def{Name: "fuzz"}
	varNames := make([]string, nVars)
	domains := make([]int, nVars)
	for i := range varNames {
		varNames[i] = fmt.Sprintf("v%d", i)
		domains[i] = 2 + rng.Intn(2)
		d.Vars = append(d.Vars, symbolic.VarSpec{Name: varNames[i], Domain: domains[i]})
	}

	randomGuard := func(readable []int) expr.Expr {
		var conj []expr.Expr
		for _, vi := range readable {
			if rng.Intn(2) == 0 {
				conj = append(conj, expr.Eq(varNames[vi], rng.Intn(domains[vi])))
			}
		}
		if len(conj) == 0 {
			return expr.True
		}
		return expr.And(conj...)
	}

	nProcs := 1 + rng.Intn(3)
	writable := rng.Perm(nVars) // writer per variable, at most one
	for p := 0; p < nProcs; p++ {
		var read, write []string
		var readIdx []int
		for vi := range varNames {
			if rng.Intn(3) > 0 { // ~2/3 readable
				read = append(read, varNames[vi])
				readIdx = append(readIdx, vi)
			}
		}
		// Choose writes among readable vars owned by this process index.
		for k, vi := range writable {
			if k%nProcs != p {
				continue
			}
			owned := false
			for _, ri := range readIdx {
				if ri == vi {
					owned = true
				}
			}
			if !owned {
				read = append(read, varNames[vi])
				readIdx = append(readIdx, vi)
			}
			write = append(write, varNames[vi])
		}
		proc := &program.Process{Name: fmt.Sprintf("p%d", p), Read: read, Write: write}
		nActs := rng.Intn(3)
		for a := 0; a < nActs && len(write) > 0; a++ {
			target := write[rng.Intn(len(write))]
			ti := indexOf(varNames, target)
			proc.Actions = append(proc.Actions, program.Action{
				Name:    fmt.Sprintf("a%d", a),
				Guard:   randomGuard(readIdx),
				Updates: []program.Update{program.Set(target, rng.Intn(domains[ti]))},
			})
		}
		d.Processes = append(d.Processes, proc)
	}

	// Faults: unrestricted random sets.
	nFaults := 1 + rng.Intn(2)
	for f := 0; f < nFaults; f++ {
		vi := rng.Intn(nVars)
		d.Faults = append(d.Faults, program.Action{
			Name:    fmt.Sprintf("f%d", f),
			Guard:   randomGuard([]int{rng.Intn(nVars)}),
			Updates: []program.Update{program.Set(varNames[vi], rng.Intn(domains[vi]))},
		})
	}

	// Invariant: a random conjunction (possibly loose).
	var inv []expr.Expr
	for vi := range varNames {
		if rng.Intn(2) == 0 {
			inv = append(inv, expr.Lt(varNames[vi], 1+rng.Intn(domains[vi])))
		}
	}
	if len(inv) == 0 {
		d.Invariant = expr.True
	} else {
		d.Invariant = expr.And(inv...)
	}

	// Safety: random bad states / bad transitions, sometimes absent.
	if rng.Intn(2) == 0 {
		vi := rng.Intn(nVars)
		d.BadStates = expr.Eq(varNames[vi], domains[vi]-1)
	}
	if rng.Intn(2) == 0 {
		vi := rng.Intn(nVars)
		d.BadTrans = expr.And(expr.Changed(varNames[vi]), expr.NextEq(varNames[vi], 0))
	}
	return d
}

func indexOf(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	panic("not found")
}

// TestFuzzLazySoundness: lazy repair on random models either refuses or
// verifies.
func TestFuzzLazySoundness(t *testing.T) {
	iterations := 150
	if testing.Short() {
		iterations = 30
	}
	rng := rand.New(rand.NewSource(20260704))
	repaired, refused := 0, 0
	for i := 0; i < iterations; i++ {
		d := randomModel(rng)
		c, err := d.Compile()
		if err != nil {
			t.Fatalf("iter %d: generator produced invalid model: %v", i, err)
		}
		res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
		if err != nil {
			refused++
			continue
		}
		repaired++
		rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, false)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("iter %d: lazy repair verified false on model %+v:\n%s", i, d, rep)
		}
	}
	t.Logf("lazy: %d repaired, %d refused", repaired, refused)
	if repaired == 0 {
		t.Fatal("generator produced no repairable models — property vacuous")
	}
}

// TestFuzzLazyCostedSoundness: cost-aware lazy repair on random models
// under random weights keeps the cost-blind verdict, verifies, never keeps
// more recovery cost than the cost-blind run under the same weights, and
// thins exactly as the all-exact reference does.
func TestFuzzLazyCostedSoundness(t *testing.T) {
	iterations := 120
	if testing.Short() {
		iterations = 40
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20261017))
	repaired, refused := 0, 0
	for i := 0; i < iterations; i++ {
		d := randomModel(rng)
		cm := drawWeights(d, rng, 1+rng.Int63n(3))
		c, err := d.Compile()
		if err != nil {
			t.Fatalf("iter %d: generator produced invalid model: %v", i, err)
		}
		for _, heuristic := range []bool{true, false} {
			opts := repair.DefaultOptions()
			opts.ReachabilityHeuristic = heuristic
			opts.Costs = cm
			blind, blindErr := repair.LazyEngine(ctx, program.NewEngine(c, opts.Workers), opts)
			opts.MinimizeCost = true
			res, err := repair.LazyEngine(ctx, program.NewEngine(c, opts.Workers), opts)
			if (err == nil) != (blindErr == nil) {
				t.Fatalf("iter %d heuristic=%v: verdicts differ: cost-blind %v, cost-aware %v", i, heuristic, blindErr, err)
			}
			if err != nil {
				refused++
				continue
			}
			repaired++
			rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("iter %d heuristic=%v: cost-aware repair verified false on model %+v:\n%s", i, heuristic, d, rep)
			}
			if res.AchievedCost > blind.AchievedCost {
				t.Fatalf("iter %d heuristic=%v: cost-aware repair keeps cost %g, cost-blind %g",
					i, heuristic, res.AchievedCost, blind.AchievedCost)
			}
			ref, err := lazyExact(ctx, c, opts)
			if err != nil {
				t.Fatalf("iter %d heuristic=%v: all-exact thinning failed: %v", i, heuristic, err)
			}
			sameResult(t, fmt.Sprintf("iter %d heuristic=%v", i, heuristic), res, ref)
		}
	}
	t.Logf("lazy costed: %d repaired, %d refused", repaired, refused)
	if repaired == 0 {
		t.Fatal("generator produced no repairable models — property vacuous")
	}
}

// TestFuzzCautiousSoundness: the cautious baseline obeys the same contract.
func TestFuzzCautiousSoundness(t *testing.T) {
	iterations := 100
	if testing.Short() {
		iterations = 20
	}
	rng := rand.New(rand.NewSource(42424242))
	repaired, refused := 0, 0
	for i := 0; i < iterations; i++ {
		d := randomModel(rng)
		c, err := d.Compile()
		if err != nil {
			t.Fatalf("iter %d: generator produced invalid model: %v", i, err)
		}
		res, err := repair.CautiousEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
		if err != nil {
			refused++
			continue
		}
		repaired++
		rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, false)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("iter %d: cautious repair verified false:\n%s", i, rep)
		}
	}
	t.Logf("cautious: %d repaired, %d refused", repaired, refused)
	if repaired == 0 {
		t.Fatal("generator produced no repairable models — property vacuous")
	}
}

// TestFuzzLazyVariantsSoundness: the pure-lazy and deferred-cycle variants
// obey the same contract.
func TestFuzzLazyVariantsSoundness(t *testing.T) {
	iterations := 80
	if testing.Short() {
		iterations = 15
	}
	variants := []repair.Options{
		{ReachabilityHeuristic: false, MaxOuterIterations: 64},
		{ReachabilityHeuristic: true, DeferCycleBreaking: true, MaxOuterIterations: 64},
		{ReachabilityHeuristic: false, DeferCycleBreaking: true, MaxOuterIterations: 64},
	}
	rng := rand.New(rand.NewSource(777))
	for i := 0; i < iterations; i++ {
		d := randomModel(rng)
		for vi, opts := range variants {
			c, err := d.Compile()
			if err != nil {
				t.Fatal(err)
			}
			res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, opts.Workers), opts)
			if err != nil {
				continue
			}
			rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("iter %d variant %d: verified false:\n%s", i, vi, rep)
			}
		}
	}
}

// TestFuzzProblemStatementContainment: on repairable models, the output's
// invariant and in-invariant behavior are contained in the original's
// (Section II problem statement), checked directly in addition to the
// verifier.
func TestFuzzProblemStatementContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := 0
	for i := 0; i < 60; i++ {
		d := randomModel(rng)
		c, err := d.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
		if err != nil {
			continue
		}
		m++
		if !c.Space.M.Implies(res.Invariant, c.Invariant) {
			t.Fatalf("iter %d: S' ⊄ S", i)
		}
		inside := c.Space.M.AndN(res.Trans, res.Invariant, c.Space.Prime(res.Invariant))
		if !c.Space.M.Implies(inside, c.Trans) {
			t.Fatalf("iter %d: δ'|S' ⊄ δ|S'", i)
		}
	}
	if m == 0 {
		t.Fatal("no repairable models generated")
	}
}
