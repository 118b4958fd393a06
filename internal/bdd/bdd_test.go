package bdd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// truthTable evaluates f on all 2^nvars assignments, returning a bit per row.
func truthTable(m *Manager, f Node, nvars int) []bool {
	rows := 1 << nvars
	out := make([]bool, rows)
	assignment := make([]bool, m.NumVars())
	for r := 0; r < rows; r++ {
		for v := 0; v < nvars; v++ {
			assignment[v] = r&(1<<v) != 0
		}
		out[r] = m.Eval(f, assignment)
	}
	return out
}

func TestTerminals(t *testing.T) {
	m := New()
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("Not on terminals broken")
	}
	if m.And(True, False) != False || m.Or(True, False) != True {
		t.Fatal("And/Or on terminals broken")
	}
	if m.Size() != 2 {
		t.Fatalf("fresh manager has %d nodes, want 2", m.Size())
	}
}

func TestVarBasics(t *testing.T) {
	m := New()
	x := m.NewVar("x")
	y := m.NewVar("y")
	if x == y {
		t.Fatal("distinct variables share a node")
	}
	if m.Var(0) != x || m.Var(1) != y {
		t.Fatal("Var does not return the allocated variable")
	}
	if m.NVar(0) != m.Not(x) {
		t.Fatal("NVar(0) != Not(x)")
	}
	if m.VarName(0) != "x" || m.VarName(1) != "y" {
		t.Fatal("variable names not registered")
	}
}

func TestHashConsing(t *testing.T) {
	m := New()
	x := m.NewVar("x")
	y := m.NewVar("y")
	a := m.And(x, y)
	b := m.And(y, x)
	if a != b {
		t.Fatal("And is not canonical under argument order")
	}
	c := m.Not(m.Or(m.Not(x), m.Not(y)))
	if c != a {
		t.Fatal("De Morgan equivalent did not hash-cons to the same node")
	}
}

func TestBooleanIdentities(t *testing.T) {
	m := New()
	vars := m.NewVars(4)
	x, y, z := vars[0], vars[1], vars[2]

	checks := []struct {
		name string
		a, b Node
	}{
		{"double negation", m.Not(m.Not(x)), x},
		{"and idempotent", m.And(x, x), x},
		{"or idempotent", m.Or(x, x), x},
		{"excluded middle", m.Or(x, m.Not(x)), True},
		{"contradiction", m.And(x, m.Not(x)), False},
		{"distributivity", m.And(x, m.Or(y, z)), m.Or(m.And(x, y), m.And(x, z))},
		{"xor def", m.Xor(x, y), m.Or(m.And(x, m.Not(y)), m.And(m.Not(x), y))},
		{"iff def", m.Iff(x, y), m.Not(m.Xor(x, y))},
		{"imp def", m.Imp(x, y), m.Or(m.Not(x), y)},
		{"ite def", m.ITE(x, y, z), m.Or(m.And(x, y), m.And(m.Not(x), z))},
		{"absorption", m.Or(x, m.And(x, y)), x},
		{"diff def", m.Diff(x, y), m.And(x, m.Not(y))},
	}
	for _, c := range checks {
		if c.a != c.b {
			t.Errorf("%s: nodes differ (%v vs %v)", c.name, c.a, c.b)
		}
	}
}

// randomFormula builds a random BDD over nvars variables using depth ops.
func randomFormula(m *Manager, rng *rand.Rand, nvars, depth int) Node {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return True
		case 1:
			return False
		default:
			v := m.Var(rng.Intn(nvars))
			if rng.Intn(2) == 0 {
				return m.Not(v)
			}
			return v
		}
	}
	a := randomFormula(m, rng, nvars, depth-1)
	b := randomFormula(m, rng, nvars, depth-1)
	switch rng.Intn(5) {
	case 0:
		return m.And(a, b)
	case 1:
		return m.Or(a, b)
	case 2:
		return m.Xor(a, b)
	case 3:
		return m.Not(a)
	default:
		c := randomFormula(m, rng, nvars, depth-1)
		return m.ITE(a, b, c)
	}
}

// TestOpsAgainstTruthTables cross-checks every operation against brute force
// on random formulas.
func TestOpsAgainstTruthTables(t *testing.T) {
	const nvars = 6
	m := New()
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		f := randomFormula(m, rng, nvars, 4)
		g := randomFormula(m, rng, nvars, 4)
		tf := truthTable(m, f, nvars)
		tg := truthTable(m, g, nvars)

		and := truthTable(m, m.And(f, g), nvars)
		or := truthTable(m, m.Or(f, g), nvars)
		xor := truthTable(m, m.Xor(f, g), nvars)
		not := truthTable(m, m.Not(f), nvars)
		for r := range tf {
			if and[r] != (tf[r] && tg[r]) {
				t.Fatalf("iter %d row %d: And mismatch", iter, r)
			}
			if or[r] != (tf[r] || tg[r]) {
				t.Fatalf("iter %d row %d: Or mismatch", iter, r)
			}
			if xor[r] != (tf[r] != tg[r]) {
				t.Fatalf("iter %d row %d: Xor mismatch", iter, r)
			}
			if not[r] != !tf[r] {
				t.Fatalf("iter %d row %d: Not mismatch", iter, r)
			}
		}
	}
}

func TestExistsForallAgainstTruthTables(t *testing.T) {
	const nvars = 6
	m := New()
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		f := randomFormula(m, rng, nvars, 4)
		// Random quantified variable set.
		var levels []int
		for v := 0; v < nvars; v++ {
			if rng.Intn(2) == 0 {
				levels = append(levels, v)
			}
		}
		cube := m.Cube(levels)
		ex := truthTable(m, m.Exists(f, cube), nvars)
		fa := truthTable(m, m.Forall(f, cube), nvars)
		tf := truthTable(m, f, nvars)

		inSet := make([]bool, nvars)
		for _, l := range levels {
			inSet[l] = true
		}
		for r := 0; r < 1<<nvars; r++ {
			// Enumerate all settings of quantified vars while fixing others.
			any, all := false, true
			for q := 0; q < 1<<len(levels); q++ {
				row := r
				for i, l := range levels {
					if q&(1<<i) != 0 {
						row |= 1 << l
					} else {
						row &^= 1 << l
					}
				}
				if tf[row] {
					any = true
				} else {
					all = false
				}
			}
			if ex[r] != any {
				t.Fatalf("iter %d row %d: Exists mismatch", iter, r)
			}
			if fa[r] != all {
				t.Fatalf("iter %d row %d: Forall mismatch", iter, r)
			}
		}
	}
}

func TestAndExistsEqualsComposition(t *testing.T) {
	const nvars = 8
	m := New()
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		f := randomFormula(m, rng, nvars, 5)
		g := randomFormula(m, rng, nvars, 5)
		var levels []int
		for v := 0; v < nvars; v++ {
			if rng.Intn(2) == 0 {
				levels = append(levels, v)
			}
		}
		cube := m.Cube(levels)
		got := m.AndExists(f, g, cube)
		want := m.Exists(m.And(f, g), cube)
		if got != want {
			t.Fatalf("iter %d: AndExists != Exists∘And", iter)
		}
	}
}

func TestReplaceSwapsVariables(t *testing.T) {
	const nvars = 8
	m := New()
	m.NewVars(nvars)
	// Pairwise swap 2i <-> 2i+1 (the current/next interleaving used by the
	// symbolic layer, deliberately order-breaking within pairs).
	mapping := make([]int, nvars)
	for i := 0; i < nvars; i += 2 {
		mapping[i] = i + 1
		mapping[i+1] = i
	}
	p := m.NewPermutation(mapping)

	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		f := randomFormula(m, rng, nvars, 5)
		g := m.Replace(f, p)
		tf := truthTable(m, f, nvars)
		tg := truthTable(m, g, nvars)
		for r := 0; r < 1<<nvars; r++ {
			// Apply the same swap to the assignment bits.
			swapped := 0
			for v := 0; v < nvars; v++ {
				if r&(1<<v) != 0 {
					swapped |= 1 << mapping[v]
				}
			}
			if tg[swapped] != tf[r] {
				t.Fatalf("iter %d: Replace mismatch at row %d", iter, r)
			}
		}
		// Replace is an involution for a pairwise swap.
		if m.Replace(g, p) != f {
			t.Fatalf("iter %d: Replace not involutive", iter)
		}
	}
}

func TestSatCount(t *testing.T) {
	m := New()
	vars := m.NewVars(10)
	if got := m.SatCount(True); got != 1024 {
		t.Fatalf("SatCount(True) = %v, want 1024", got)
	}
	if got := m.SatCount(False); got != 0 {
		t.Fatalf("SatCount(False) = %v, want 0", got)
	}
	if got := m.SatCount(vars[3]); got != 512 {
		t.Fatalf("SatCount(x3) = %v, want 512", got)
	}
	f := m.And(vars[0], m.Or(vars[1], vars[2]))
	// x0 ∧ (x1 ∨ x2): 3 of 8 settings of (x0,x1,x2), times 2^7 for the rest.
	if got := m.SatCount(f); got != 3*128 {
		t.Fatalf("SatCount = %v, want 384", got)
	}
}

func TestSatCountAgainstTruthTables(t *testing.T) {
	const nvars = 7
	m := New()
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 100; iter++ {
		f := randomFormula(m, rng, nvars, 5)
		tt := truthTable(m, f, nvars)
		want := 0
		for _, b := range tt {
			if b {
				want++
			}
		}
		if got := m.SatCount(f); math.Abs(got-float64(want)) > 1e-9 {
			t.Fatalf("iter %d: SatCount = %v, want %d", iter, got, want)
		}
	}
}

func TestSatCountVars(t *testing.T) {
	m := New()
	vars := m.NewVars(6)
	f := m.And(vars[0], vars[1])
	if got := m.SatCountVars(f, 3); got != 2 {
		t.Fatalf("SatCountVars(x0∧x1, 3) = %v, want 2", got)
	}
}

func TestPickCubeAndEval(t *testing.T) {
	const nvars = 6
	m := New()
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 100; iter++ {
		f := randomFormula(m, rng, nvars, 4)
		cube := m.PickCube(f)
		if f == False {
			if cube != nil {
				t.Fatal("PickCube on False should be nil")
			}
			continue
		}
		assignment := make([]bool, nvars)
		for v := 0; v < nvars; v++ {
			assignment[v] = cube[v] == 1
		}
		if !m.Eval(f, assignment) {
			t.Fatalf("iter %d: PickCube produced a non-model", iter)
		}
	}
}

func TestAllSatEnumeratesExactly(t *testing.T) {
	const nvars = 5
	m := New()
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 100; iter++ {
		f := randomFormula(m, rng, nvars, 4)
		found := make(map[int]bool)
		m.AllSat(f, func(cube []int8) bool {
			// Expand don't-cares.
			var expand func(i, row int)
			expand = func(i, row int) {
				if i == nvars {
					found[row] = true
					return
				}
				switch cube[i] {
				case 0:
					expand(i+1, row)
				case 1:
					expand(i+1, row|1<<i)
				default:
					expand(i+1, row)
					expand(i+1, row|1<<i)
				}
			}
			expand(0, 0)
			return true
		})
		tt := truthTable(m, f, nvars)
		for r, b := range tt {
			if b != found[r] {
				t.Fatalf("iter %d row %d: AllSat=%v truth=%v", iter, r, found[r], b)
			}
		}
	}
}

func TestSupport(t *testing.T) {
	m := New()
	vars := m.NewVars(8)
	f := m.And(vars[1], m.Or(vars[4], m.Not(vars[6])))
	got := m.Support(f)
	want := []int{1, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
}

func TestCubeRoundTrip(t *testing.T) {
	m := New()
	m.NewVars(10)
	vars := []int{7, 2, 5}
	cube := m.Cube(vars)
	got := m.CubeVars(cube)
	if len(got) != 3 {
		t.Fatalf("CubeVars returned %v", got)
	}
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	for _, v := range vars {
		if !seen[v] {
			t.Fatalf("cube lost variable %d: %v", v, got)
		}
	}
}

func TestImplies(t *testing.T) {
	m := New()
	x := m.NewVar("x")
	y := m.NewVar("y")
	if !m.Implies(m.And(x, y), x) {
		t.Fatal("x∧y should imply x")
	}
	if m.Implies(x, m.And(x, y)) {
		t.Fatal("x should not imply x∧y")
	}
	if !m.Implies(False, x) || !m.Implies(x, True) {
		t.Fatal("terminal implications broken")
	}
}

func TestNodeCount(t *testing.T) {
	m := New()
	x := m.NewVar("x")
	if m.NodeCount(True) != 1 {
		t.Fatal("NodeCount(True) != 1")
	}
	if got := m.NodeCount(x); got != 3 { // x node + two terminals
		t.Fatalf("NodeCount(x) = %d, want 3", got)
	}
}

func TestFlushCachesPreservesSemantics(t *testing.T) {
	m := New()
	vars := m.NewVars(6)
	f := m.And(vars[0], m.Or(vars[1], vars[2]))
	before := m.SatCount(f)
	m.FlushCaches()
	g := m.And(vars[0], m.Or(vars[1], vars[2]))
	if g != f {
		t.Fatal("rebuilding after FlushCaches produced a different node")
	}
	if m.SatCount(g) != before {
		t.Fatal("SatCount changed after FlushCaches")
	}
}

func TestDotOutput(t *testing.T) {
	m := New()
	x := m.NewVar("x")
	y := m.NewVar("y")
	dot := m.Dot(m.And(x, y), "and")
	if len(dot) == 0 {
		t.Fatal("empty dot output")
	}
	for _, want := range []string{"digraph", "x", "y", "->"} {
		if !contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// Property-based tests via testing/quick. Assignments are driven by a random
// uint32 per test case; formulas are fixed structurally rich ones.

func TestQuickDeMorgan(t *testing.T) {
	m := New()
	const nvars = 8
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(99))
	f := randomFormula(m, rng, nvars, 6)
	g := randomFormula(m, rng, nvars, 6)
	lhs := m.Not(m.And(f, g))
	rhs := m.Or(m.Not(f), m.Not(g))
	if lhs != rhs {
		t.Fatal("De Morgan violated structurally")
	}
	prop := func(bits uint32) bool {
		assignment := make([]bool, nvars)
		for v := 0; v < nvars; v++ {
			assignment[v] = bits&(1<<v) != 0
		}
		return m.Eval(lhs, assignment) == !(m.Eval(f, assignment) && m.Eval(g, assignment))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExistsIsUpperBound(t *testing.T) {
	m := New()
	const nvars = 8
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(123))
	prop := func(seed int64, mask uint8) bool {
		local := rand.New(rand.NewSource(seed))
		f := randomFormula(m, local, nvars, 4)
		var levels []int
		for v := 0; v < nvars; v++ {
			if mask&(1<<v) != 0 {
				levels = append(levels, v)
			}
		}
		cube := m.Cube(levels)
		ex := m.Exists(f, cube)
		fa := m.Forall(f, cube)
		// ∀ ⊆ f ⊆ ∃ and quantifications remove the support.
		if !m.Implies(fa, f) || !m.Implies(f, ex) {
			return false
		}
		for _, l := range m.Support(ex) {
			for _, ql := range levels {
				if l == ql {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueTableGrowth(t *testing.T) {
	m := New()
	vars := m.NewVars(20)
	// Build a function with many nodes to force table growth.
	f := False
	for i := 0; i+1 < len(vars); i++ {
		f = m.Or(f, m.And(vars[i], vars[i+1]))
	}
	if f == False || f == True {
		t.Fatal("expected nontrivial function")
	}
	if m.Size() < 40 {
		t.Fatalf("expected node growth, size=%d", m.Size())
	}
	// Semantics survive growth.
	assignment := make([]bool, 20)
	assignment[3], assignment[4] = true, true
	if !m.Eval(f, assignment) {
		t.Fatal("Eval wrong after growth")
	}
}

func TestPermutationValidation(t *testing.T) {
	m := New()
	m.NewVars(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-bijective permutation")
		}
	}()
	m.NewPermutation([]int{0, 0, 2, 3})
}

func TestVarOutOfRangePanics(t *testing.T) {
	m := New()
	m.NewVars(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Var")
		}
	}()
	m.Var(5)
}

func TestRestrictAgreesOnCareSet(t *testing.T) {
	const nvars = 7
	m := New()
	m.NewVars(nvars)
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 200; iter++ {
		f := randomFormula(m, rng, nvars, 4)
		c := randomFormula(m, rng, nvars, 4)
		if c == False {
			continue
		}
		r := m.Restrict(f, c)
		tf := truthTable(m, f, nvars)
		tc := truthTable(m, c, nvars)
		tr := truthTable(m, r, nvars)
		for row := range tf {
			if tc[row] && tr[row] != tf[row] {
				t.Fatalf("iter %d row %d: Restrict disagrees on the care set", iter, row)
			}
		}
		// Idempotent on the care set and never larger than useful: the
		// classical size property r = f when c = True.
		if m.Restrict(f, True) != f {
			t.Fatal("Restrict with True care set must be identity")
		}
	}
}

func TestRestrictPanicsOnEmptyCareSet(t *testing.T) {
	m := New()
	x := m.NewVar("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Restrict(x, False)
}
