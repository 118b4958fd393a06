package symbolic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
)

func twoCounterSpace(t *testing.T) *Space {
	t.Helper()
	s, err := New([]VarSpec{{Name: "x", Domain: 3}, {Name: "y", Domain: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]VarSpec{{Name: "x", Domain: 1}}); err == nil {
		t.Fatal("domain 1 should be rejected")
	}
	if _, err := New([]VarSpec{{Name: "x", Domain: 2}, {Name: "x", Domain: 2}}); err == nil {
		t.Fatal("duplicate names should be rejected")
	}
}

func TestStateCounting(t *testing.T) {
	s := twoCounterSpace(t)
	// Full valid space: 3 * 4 = 12 states.
	if got := s.CountStates(bdd.True); got != 12 {
		t.Fatalf("CountStates(true) = %v, want 12", got)
	}
	x := s.VarByName("x")
	if got := s.CountStates(x.EqConst(2)); got != 4 {
		t.Fatalf("CountStates(x=2) = %v, want 4", got)
	}
	st, err := s.State(map[string]int{"x": 1, "y": 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CountStates(st); got != 1 {
		t.Fatalf("CountStates(single state) = %v, want 1", got)
	}
}

func TestStateErrors(t *testing.T) {
	s := twoCounterSpace(t)
	if _, err := s.State(map[string]int{"z": 0}); err == nil {
		t.Fatal("unknown variable should error")
	}
	if _, err := s.State(map[string]int{"x": 3}); err == nil {
		t.Fatal("out-of-domain value should error")
	}
}

func TestEqConstDisjoint(t *testing.T) {
	s := twoCounterSpace(t)
	x := s.VarByName("x")
	m := s.M
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			inter := m.And(x.EqConst(a), x.EqConst(b))
			if (a == b) != (inter != bdd.False) {
				t.Fatalf("EqConst(%d) ∧ EqConst(%d) wrong", a, b)
			}
		}
	}
	// Union of all values covers ValidCur restricted to x's bits.
	all := bdd.False
	for a := 0; a < 3; a++ {
		all = m.Or(all, x.EqConst(a))
	}
	if s.CountStates(all) != 12 {
		t.Fatal("union of x values should cover the whole valid space")
	}
}

func TestPrimeInvolution(t *testing.T) {
	s := twoCounterSpace(t)
	x := s.VarByName("x")
	f := x.EqConst(2)
	if s.Prime(s.Prime(f)) != f {
		t.Fatal("Prime is not involutive")
	}
	// Prime moves support from cur to next levels.
	primed := s.Prime(f)
	support := s.M.Support(primed)
	nexts := map[int]bool{}
	for _, l := range x.NextLevels() {
		nexts[l] = true
	}
	for _, l := range support {
		if !nexts[l] {
			t.Fatalf("primed support contains non-next level %d", l)
		}
	}
}

// incrementMod builds the transition x' = (x+1) mod d with y unchanged.
func incrementMod(s *Space) bdd.Node {
	m := s.M
	x, y := s.VarByName("x"), s.VarByName("y")
	tr := bdd.False
	for v := 0; v < x.Domain; v++ {
		tr = m.Or(tr, m.And(x.EqConst(v), x.NextEqConst((v+1)%x.Domain)))
	}
	return m.AndN(tr, y.Unchanged(), s.ValidTrans())
}

func TestImagePreimage(t *testing.T) {
	s := twoCounterSpace(t)
	m := s.M
	x := s.VarByName("x")
	tr := incrementMod(s)

	from := m.And(x.EqConst(0), s.ValidCur())
	img := s.Image(from, tr)
	want := m.And(x.EqConst(1), s.ValidCur())
	if img != want {
		t.Fatalf("Image(x=0) = %s, want x=1", m.String(img))
	}

	pre := s.Preimage(want, tr)
	if pre != from {
		t.Fatalf("Preimage(x=1) = %s, want x=0", m.String(pre))
	}
}

func TestReachableFixpoint(t *testing.T) {
	s := twoCounterSpace(t)
	m := s.M
	y := s.VarByName("y")
	tr := incrementMod(s)
	init, _ := s.State(map[string]int{"x": 0, "y": 2})
	reach := s.Reachable(init, tr)
	// x cycles over 3 values, y frozen at 2 -> 3 states.
	if got := s.CountStates(reach); got != 3 {
		t.Fatalf("reachable count = %v, want 3", got)
	}
	if !m.Implies(reach, y.EqConst(2)) {
		t.Fatal("reachable set should keep y = 2")
	}
	back := s.BackwardReachable(init, tr)
	if s.CountStates(back) != 3 {
		t.Fatal("backward reachable over a cycle should also be 3 states")
	}
}

func TestUnchangedAndIdentity(t *testing.T) {
	s := twoCounterSpace(t)
	m := s.M
	x, y := s.VarByName("x"), s.VarByName("y")
	id := s.Identity()
	if id != m.And(x.Unchanged(), y.Unchanged()) {
		t.Fatal("Identity != conjunction of per-variable Unchanged")
	}
	// Identity maps each state to itself only.
	st, _ := s.State(map[string]int{"x": 1, "y": 1})
	img := s.Image(st, m.And(id, s.ValidTrans()))
	if img != st {
		t.Fatal("Identity image of a state is not the state itself")
	}
}

func TestEqAndNextEq(t *testing.T) {
	s := MustNew([]VarSpec{{Name: "a", Domain: 4}, {Name: "b", Domain: 4}, {Name: "c", Domain: 3}})
	m := s.M
	a, b, c := s.VarByName("a"), s.VarByName("b"), s.VarByName("c")

	eq := a.Eq(b)
	// a = b over 4x4: 4 pairs, times 3 for c.
	if got := s.CountStates(eq); got != 12 {
		t.Fatalf("CountStates(a=b) = %v, want 12", got)
	}
	// Mismatched domains compare value-wise over the common range.
	eqac := a.Eq(c)
	if got := s.CountStates(eqac); got != 12 { // 3 matching values, times 4 for b
		t.Fatalf("CountStates(a=c) = %v, want 12", got)
	}

	// NextEq implements assignment: from any state, image of (a' = b,
	// others unchanged) sets a to b's value.
	tr := m.AndN(a.NextEq(b), b.Unchanged(), c.Unchanged(), s.ValidTrans())
	st, _ := s.State(map[string]int{"a": 0, "b": 3, "c": 1})
	img := s.Image(st, tr)
	want, _ := s.State(map[string]int{"a": 3, "b": 3, "c": 1})
	if img != want {
		t.Fatalf("assignment image wrong: %s", m.String(img))
	}
}

func TestCountTransitions(t *testing.T) {
	s := twoCounterSpace(t)
	tr := incrementMod(s)
	// 3 x-values * 4 y-values source states, each with exactly one successor.
	if got := s.CountTransitions(tr); got != 12 {
		t.Fatalf("CountTransitions = %v, want 12", got)
	}
}

func TestDecodeCube(t *testing.T) {
	s := twoCounterSpace(t)
	x, y := s.VarByName("x"), s.VarByName("y")
	st, _ := s.State(map[string]int{"x": 2, "y": 3})
	cube := s.M.PickCube(st)
	if x.DecodeCube(cube) != 2 || y.DecodeCube(cube) != 3 {
		t.Fatalf("DecodeCube got x=%d y=%d", x.DecodeCube(cube), y.DecodeCube(cube))
	}
}

func TestQuickReachableMonotone(t *testing.T) {
	s := twoCounterSpace(t)
	tr := s.M.Ref(incrementMod(s)) // held across many fixpoint runs
	prop := func(xv, yv uint8) bool {
		init, err := s.State(map[string]int{"x": int(xv % 3), "y": int(yv % 4)})
		if err != nil {
			return false
		}
		reach := s.Reachable(init, tr)
		// init ⊆ reach and image(reach) ⊆ reach (closure).
		if !s.M.Implies(init, reach) {
			return false
		}
		return s.M.Implies(s.Image(reach, tr), reach)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCountStatesLargeSpace(t *testing.T) {
	// 30 variables of domain 10: 10^30 states, matching the paper's largest
	// chain instance. Exercises float counting at Table-II scale.
	specs := make([]VarSpec, 30)
	for i := range specs {
		specs[i] = VarSpec{Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), Domain: 10}
	}
	s := MustNew(specs)
	got := s.CountStates(bdd.True)
	if math.Abs(got-1e30)/1e30 > 1e-9 {
		t.Fatalf("CountStates = %v, want 1e30", got)
	}
}

// TestReachablePartsMatchesMonolithic: disjunctive partitioning with
// chaining computes exactly the same fixpoints as the monolithic relation.
func TestReachablePartsMatchesMonolithic(t *testing.T) {
	s := MustNew([]VarSpec{{Name: "x", Domain: 4}, {Name: "y", Domain: 3}, {Name: "z", Domain: 2}})
	m := s.M
	x, y, z := s.VarByName("x"), s.VarByName("y"), s.VarByName("z")

	// Three independent "actions", one per variable.
	incX := bdd.False
	for v := 0; v < 4; v++ {
		incX = m.Or(incX, m.And(x.EqConst(v), x.NextEqConst((v+1)%4)))
	}
	incX = m.AndN(incX, y.Unchanged(), z.Unchanged(), s.ValidTrans())
	setY := m.AndN(y.NextEq(x), x.Unchanged(), z.Unchanged(), s.ValidTrans())
	flipZ := m.AndN(m.Not(z.Unchanged()), x.Unchanged(), y.Unchanged(), s.ValidTrans())
	parts := []bdd.Node{incX, setY, flipZ}
	union := m.OrN(parts...)

	init, _ := s.State(map[string]int{"x": 0, "y": 2, "z": 0})
	mono := s.Reachable(init, union)
	part := s.ReachableParts(init, parts)
	if mono != part {
		t.Fatalf("partitioned reach (%g) != monolithic (%g)",
			s.CountStates(part), s.CountStates(mono))
	}

	target, _ := s.State(map[string]int{"x": 3, "y": 0, "z": 1})
	monoB := s.BackwardReachable(target, union)
	partB := s.BackwardReachableParts(target, parts)
	if monoB != partB {
		t.Fatalf("partitioned backward reach (%g) != monolithic (%g)",
			s.CountStates(partB), s.CountStates(monoB))
	}
}

func TestReachablePartsSkipsEmptyPartitions(t *testing.T) {
	s := MustNew([]VarSpec{{Name: "x", Domain: 2}})
	init, _ := s.State(map[string]int{"x": 0})
	got := s.ReachableParts(init, []bdd.Node{bdd.False, bdd.False})
	if got != init {
		t.Fatal("no transitions should reach nothing new")
	}
	if s.BackwardReachableParts(init, nil) != init {
		t.Fatal("backward with no partitions should be the target itself")
	}
}

// TestValidTransComputedOnce checks that ValidTrans is one rooted node,
// computed when the space is built: it equals ValidCur ∧ ValidNext, reading
// it runs no BDD operation, and it survives a collection.
func TestValidTransComputedOnce(t *testing.T) {
	s := twoCounterSpace(t)
	m := s.M
	vt := s.ValidTrans()
	if want := m.And(s.ValidCur(), s.ValidNext()); vt != want {
		t.Fatalf("ValidTrans = node %d, ValidCur ∧ ValidNext = node %d", vt, want)
	}
	if vt == bdd.True {
		t.Fatal("domain 3 has an unused encoding; ValidTrans must not be True")
	}
	before := m.Stats()
	for i := 0; i < 3; i++ {
		if got := s.ValidTrans(); got != vt {
			t.Fatalf("call %d returned node %d, want %d", i+2, got, vt)
		}
	}
	if after := m.Stats(); after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Fatal("ValidTrans ran a BDD operation; it must return the stored node")
	}
	m.GC()
	m.CheckNode(vt)
}
