package program

// Property test for CyclicCore's acyclicity certificate: on random models
// whose processes have restricted read and write sets, CyclicCore (which
// tries the certificate before peeling) must equal the plain peel for every
// partition list and region. The corpus covers three model shapes — chains
// (an acyclic dependency graph), rings (a cyclic one) and chains with a
// process that cycles locally — and must reach every certificate verdict.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/expr"
	"repro/internal/symbolic"
)

// Model shapes of the certificate corpus.
const (
	shapeChain = iota // p_i reads x_{i-1}, x_i and writes x_i: a DAG
	shapeRing         // p_0 also reads x_{n-1}: a cyclic dependency graph
	shapeLocal        // a chain whose last process flips its cell back and forth
	numShapes
)

// genCertDef builds a random model of the given shape over 2-4 variables
// with domains 2-3. Every process writes one cell and reads it and its left
// neighbour; actions are random guards over the readable cells with a
// constant or copy update, and one fault sets a random cell.
func genCertDef(r *rand.Rand, seed, shape int) *Def {
	nv := 2 + r.Intn(3)
	dom := 2 + r.Intn(2)
	d := &Def{Name: fmt.Sprintf("cert-%d-%d", shape, seed)}
	cell := func(i int) string { return fmt.Sprintf("x%d", i) }
	for i := 0; i < nv; i++ {
		d.Vars = append(d.Vars, symbolic.VarSpec{Name: cell(i), Domain: dom})
	}
	first := 1
	if shape == shapeRing {
		first = 0
	}
	for i := first; i < nv; i++ {
		left, own := cell((i+nv-1)%nv), cell(i)
		proc := &Process{Name: fmt.Sprintf("p%d", i), Read: []string{left, own}, Write: []string{own}}
		for a := 0; a < 1+r.Intn(2); a++ {
			var lits []expr.Expr
			if r.Intn(2) == 0 {
				lits = append(lits, expr.Eq(own, r.Intn(dom)))
			}
			if r.Intn(2) == 0 {
				lits = append(lits, expr.Eq(left, r.Intn(dom)))
			}
			if r.Intn(2) == 0 {
				lits = append(lits, expr.Not(expr.EqVar(own, left)))
			}
			up := Set(own, r.Intn(dom))
			if r.Intn(2) == 0 {
				up = Copy(own, left)
			}
			proc.Actions = append(proc.Actions, Action{
				Name:    fmt.Sprintf("a%d_%d", i, a),
				Guard:   expr.And(append(lits, expr.True)...),
				Updates: []Update{up},
			})
		}
		if shape == shapeLocal && i == nv-1 {
			proc.Actions = append(proc.Actions,
				Action{Name: "flip", Guard: expr.Eq(own, 0), Updates: []Update{Set(own, 1)}},
				Action{Name: "flop", Guard: expr.Eq(own, 1), Updates: []Update{Set(own, 0)}})
		}
		d.Processes = append(d.Processes, proc)
	}
	hit := cell(r.Intn(nv))
	d.Faults = []Action{{Name: "hit", Guard: expr.True, Updates: []Update{Set(hit, r.Intn(dom))}}}
	d.Invariant = expr.Eq(cell(0), 0)
	return d
}

// randomRegion returns a random set of states: the union of one to three
// random conjunctions of equality literals.
func randomRegion(r *rand.Rand, d *Def) expr.Expr {
	var cubes []expr.Expr
	for k := 0; k < 1+r.Intn(3); k++ {
		lits := []expr.Expr{expr.True}
		for _, v := range d.Vars {
			if r.Intn(3) == 0 {
				lits = append(lits, expr.Not(expr.Eq(v.Name, r.Intn(v.Domain))))
			}
		}
		cubes = append(cubes, expr.And(lits...))
	}
	return expr.Or(cubes...)
}

func TestCyclicCoreCertificateMatchesPeel(t *testing.T) {
	const seeds = 25
	var verdicts [4]int
	provedMoving := 0 // proofs with at least one step inside the region
	for shape := 0; shape < numShapes; shape++ {
		for seed := 0; seed < seeds; seed++ {
			r := rand.New(rand.NewSource(int64(100*shape + seed)))
			d := genCertDef(r, seed, shape)
			c, err := d.Compile()
			if err != nil {
				t.Fatalf("shape %d seed %d: %v", shape, seed, err)
			}
			if c.depAcyclic != (shape != shapeRing) {
				t.Fatalf("shape %d seed %d: depAcyclic = %v", shape, seed, c.depAcyclic)
			}
			m := c.Space.M
			sc := m.Protect()
			// Three partition lists per model: the processes' own relations,
			// the same with the (unrestricted) fault added to every part,
			// and their union as a single part.
			trans := make([]bdd.Node, len(c.Procs))
			withFault := make([]bdd.Node, len(c.Procs))
			for j, p := range c.Procs {
				trans[j] = p.Trans
				withFault[j] = sc.Keep(m.Or(p.Trans, c.Fault))
			}
			lists := [][]bdd.Node{trans, withFault, {c.Trans}}
			for k, parts := range lists {
				for rep := 0; rep < 2; rep++ {
					region, err := randomRegion(r, d).Compile(c.Space)
					if err != nil {
						t.Fatal(err)
					}
					region = sc.Keep(m.And(region, c.Space.ValidCur()))
					got := sc.Keep(CyclicCore(c, parts, region))
					want := sc.Keep(cyclicCorePeel(c, parts, region))
					if got != want {
						t.Fatalf("shape %d seed %d parts %d: CyclicCore %v differs from the peel %v (model %+v)",
							shape, seed, k, c.Space.CountStates(got), c.Space.CountStates(want), d)
					}
					v := certifyAcyclic(c, parts, region)
					if v == certProved && want != bdd.False {
						t.Fatalf("shape %d seed %d parts %d: certificate proved a non-empty core", shape, seed, k)
					}
					verdicts[v]++
					if v == certProved && m.AndN(m.OrN(parts...), region, c.Space.Prime(region)) != bdd.False {
						provedMoving++
					}
				}
			}
			sc.Release()
		}
	}
	t.Logf("verdicts: proved %d (%d with a step inside the region), cyclic graph %d, write-illegal %d, cyclic projection %d",
		verdicts[certProved], provedMoving, verdicts[certCyclicGraph], verdicts[certWriteIllegal], verdicts[certCyclicProjection])
	for v, n := range verdicts {
		if n == 0 {
			t.Errorf("verdict %d never occurred in the corpus", v)
		}
	}
	if provedMoving == 0 {
		t.Error("the certificate never proved a region with a step inside it")
	}
}
