package program

// Property test for the frontier-chained fixpoint: on a corpus of random
// small models, the fixpoint of a serial and of a two-worker engine must be
// exactly the one the full-set oracle (symbolic.ReachablePartsCtx /
// BackwardReachablePartsCtx) computes, forward and backward. On failure the model shrinks greedily (dropping one action
// at a time while the mismatch persists) before reporting.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/expr"
	"repro/internal/symbolic"
)

// genDef builds a random small model: 2-4 variables over domains 2-3, 1-2
// processes with 1-3 actions each, and 0-2 fault actions. Guards are random
// conjunctions of equality literals; updates are random constant sets and
// variable copies. Every process reads and writes every variable — read and
// write restrictions are irrelevant to reachability.
func genDef(r *rand.Rand, seed int) *Def {
	nv := 2 + r.Intn(3)
	dom := 2 + r.Intn(2)
	d := &Def{Name: fmt.Sprintf("prop-%d", seed)}
	var names []string
	for i := 0; i < nv; i++ {
		name := fmt.Sprintf("x%d", i)
		d.Vars = append(d.Vars, symbolic.VarSpec{Name: name, Domain: dom})
		names = append(names, name)
	}
	randGuard := func() expr.Expr {
		k := r.Intn(3)
		if k == 0 {
			return expr.True
		}
		lits := make([]expr.Expr, k)
		for i := range lits {
			lits[i] = expr.Eq(names[r.Intn(nv)], r.Intn(dom))
		}
		return expr.And(lits...)
	}
	randUpdates := func() []Update {
		ups := make([]Update, 1+r.Intn(2))
		for i := range ups {
			if r.Intn(2) == 0 {
				ups[i] = Set(names[r.Intn(nv)], r.Intn(dom))
			} else {
				ups[i] = Copy(names[r.Intn(nv)], names[r.Intn(nv)])
			}
		}
		return ups
	}
	np := 1 + r.Intn(2)
	for p := 0; p < np; p++ {
		proc := &Process{Name: fmt.Sprintf("p%d", p), Read: names, Write: names}
		na := 1 + r.Intn(3)
		for a := 0; a < na; a++ {
			proc.Actions = append(proc.Actions, Action{
				Name:    fmt.Sprintf("a%d_%d", p, a),
				Guard:   randGuard(),
				Updates: randUpdates(),
			})
		}
		d.Processes = append(d.Processes, proc)
	}
	nf := r.Intn(3)
	for f := 0; f < nf; f++ {
		d.Faults = append(d.Faults, Action{
			Name:    fmt.Sprintf("f%d", f),
			Guard:   randGuard(),
			Updates: randUpdates(),
		})
	}
	d.Invariant = expr.Eq(names[0], 0)
	d.BadStates = expr.And(expr.Eq(names[0], dom-1), expr.Eq(names[nv-1], dom-1))
	return d
}

// checkDef compares the scheduler against the full-set oracle on one model,
// in both directions and on both engines. It returns a
// description of the first mismatch, or "" when the model passes.
func checkDef(t *testing.T, d *Def, seed int64) string {
	c, err := d.Compile()
	if err != nil {
		// Not every random model compiles (e.g. duplicate updates of one
		// variable in one action); skip those.
		return ""
	}
	m := c.Space.M
	parts := c.PartsWithFaults(bdd.True)
	init := c.Invariant
	target := c.BadStates

	// Oracle: the full-set chained fixpoints in internal/symbolic, which
	// this PR deliberately leaves untouched.
	wantFwd := c.Space.ReachableParts(init, parts)
	m.Ref(wantFwd)
	wantBwd := c.Space.BackwardReachableParts(target, parts)
	m.Ref(wantBwd)

	engines := []struct {
		name  string
		build func() (*Engine, error)
	}{
		{"serial", func() (*Engine, error) { return SerialEngine(c), nil }},
		{"partitioned2", func() (*Engine, error) { return NewEngine(c, 2) }},
	}
	for _, ec := range engines {
		e, err := ec.build()
		if err != nil {
			return fmt.Sprintf("%s: engine: %v", ec.name, err)
		}
		gotFwd, err := e.ReachableParts(context.Background(), init, parts)
		if err != nil {
			return fmt.Sprintf("%s forward: %v", ec.name, err)
		}
		if gotFwd != wantFwd {
			return fmt.Sprintf("%s forward fixpoint differs from oracle (node %d vs %d)", ec.name, gotFwd, wantFwd)
		}
		gotBwd, err := e.BackwardReachableParts(context.Background(), target, parts)
		if err != nil {
			return fmt.Sprintf("%s backward: %v", ec.name, err)
		}
		if gotBwd != wantBwd {
			return fmt.Sprintf("%s backward fixpoint differs from oracle (node %d vs %d)", ec.name, gotBwd, wantBwd)
		}
	}
	return ""
}

// shrink greedily drops one action (process or fault) at a time while the
// mismatch persists, returning a locally minimal failing model.
func shrink(t *testing.T, d *Def, seed int64) *Def {
	for {
		reduced := false
		for p := range d.Processes {
			for a := range d.Processes[p].Actions {
				cand := cloneDef(d)
				proc := cand.Processes[p]
				proc.Actions = append(append([]Action{}, proc.Actions[:a]...), proc.Actions[a+1:]...)
				if len(proc.Actions) == 0 {
					continue // every process needs at least one action
				}
				if checkDef(t, cand, seed) != "" {
					d, reduced = cand, true
					break
				}
			}
			if reduced {
				break
			}
		}
		if reduced {
			continue
		}
		for f := range d.Faults {
			cand := cloneDef(d)
			cand.Faults = append(append([]Action{}, cand.Faults[:f]...), cand.Faults[f+1:]...)
			if checkDef(t, cand, seed) != "" {
				d, reduced = cand, true
				break
			}
		}
		if !reduced {
			return d
		}
	}
}

func cloneDef(d *Def) *Def {
	nd := *d
	nd.Processes = make([]*Process, len(d.Processes))
	for i, p := range d.Processes {
		np := *p
		np.Actions = append([]Action{}, p.Actions...)
		nd.Processes[i] = &np
	}
	nd.Faults = append([]Action{}, d.Faults...)
	return &nd
}

func TestFixpointMatchesOracleProperty(t *testing.T) {
	const corpus = 40
	for seed := 0; seed < corpus; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		d := genDef(r, seed)
		if msg := checkDef(t, d, int64(seed)); msg != "" {
			min := shrink(t, d, int64(seed))
			t.Fatalf("seed %d: %s\nshrunk model: %d procs, %d faults: %+v",
				seed, msg, len(min.Processes), len(min.Faults), min)
		}
	}
}
