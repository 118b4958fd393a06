package bdd

import (
	"math/rand"
	"testing"
)

// twinManager builds a manager with n current/next pairs interleaved as the
// symbolic layer lays them out (current id 2i, its twin 2i+1 directly
// below), the swap permutation, both cubes, and a pool of random functions:
// the variables, state sets over current bits only, and randFormula
// combinations of everything.
func twinManager(rng *rand.Rand, n int) (m *Manager, swap *Permutation, cur, next Node, states, pool []Node) {
	m = New()
	m.NewVars(2 * n)
	mapping := make([]int, 2*n)
	var curIDs, nextIDs []int
	for i := 0; i < n; i++ {
		mapping[2*i], mapping[2*i+1] = 2*i+1, 2*i
		curIDs, nextIDs = append(curIDs, 2*i), append(nextIDs, 2*i+1)
	}
	swap = m.NewPermutation(mapping)
	cur, next = m.Ref(m.Cube(curIDs)), m.Ref(m.Cube(nextIDs))
	for i := 0; i < n; i++ {
		states = append(states, m.Ref(m.Var(2*i)))
	}
	for len(states) < 40 {
		states = append(states, m.Ref(randFormula(rng, len(states), 2*n)(m, states)))
	}
	// randFormula's quantifier cases can only remove variables, and every
	// other case combines current-state sets, so states stays one.
	pool = append(pool, states...)
	for i := 0; i < 2*n; i++ {
		pool = append(pool, m.Ref(m.Var(i)))
	}
	for len(pool) < 160 {
		pool = append(pool, m.Ref(randFormula(rng, len(pool), 2*n)(m, pool)))
	}
	return m, swap, cur, next, states, pool
}

// randCube is the cube of a random subset of n variables.
func randCube(m *Manager, rng *rand.Rand, n int) Node {
	var vars []int
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			vars = append(vars, v)
		}
	}
	return m.Cube(vars)
}

// TestDiffExistsMatchesComposition: the fused ∃cube.(f ∧ ¬g) is the node
// Exists(Diff(f, g), cube) builds, on random operands and cubes.
func TestDiffExistsMatchesComposition(t *testing.T) {
	const nvars = 10
	rng := rand.New(rand.NewSource(21))
	m := New()
	m.NewVars(nvars)
	pool := []Node{False, True}
	for i := 0; i < nvars; i++ {
		pool = append(pool, m.Ref(m.Var(i)))
	}
	for len(pool) < 120 {
		pool = append(pool, m.Ref(randFormula(rng, len(pool), nvars)(m, pool)))
	}
	for iter := 0; iter < 600; iter++ {
		f, g := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		cube := m.Ref(randCube(m, rng, nvars))
		got := m.DiffExists(f, g, cube)
		if want := m.Exists(m.Diff(f, g), cube); got != want {
			t.Fatalf("iter %d: DiffExists = %d, Exists(Diff) = %d", iter, got, want)
		}
		m.Deref(cube)
	}
}

// TestAndDiffMatchesComposition: the fused f ∧ g ∧ ¬h is the node
// Diff(And(f, g), h) builds, on random operands with the terminals among
// them, and with aliased operands (f = g, g = h, f = h) on every eighth
// draw each.
func TestAndDiffMatchesComposition(t *testing.T) {
	const nvars = 10
	rng := rand.New(rand.NewSource(25))
	m := New()
	m.NewVars(nvars)
	pool := []Node{False, True}
	for i := 0; i < nvars; i++ {
		pool = append(pool, m.Ref(m.Var(i)))
	}
	for len(pool) < 120 {
		pool = append(pool, m.Ref(randFormula(rng, len(pool), nvars)(m, pool)))
	}
	aliased := 0
	for iter := 0; iter < 1200; iter++ {
		f, g, h := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		switch iter % 8 {
		case 1:
			g = f
		case 3:
			h = g
		case 5:
			h = f
		}
		if f == g || g == h || f == h {
			aliased++
		}
		got := m.AndDiff(f, g, h)
		if want := m.Diff(m.And(f, g), h); got != want {
			t.Fatalf("iter %d: AndDiff(%d, %d, %d) = %d, Diff(And) = %d", iter, f, g, h, got, want)
		}
	}
	if aliased == 0 {
		t.Fatal("no aliased operands drawn")
	}
}

// TestShiftedProductsMatchComposition: on the interleaved order RelNext is
// the node Replace(AndExists(f, g, cur), swap) builds and RelPrev the node
// AndExists(f, Replace(g, swap), next) builds, for random operands. A state
// set as RelPrev's target, and any operands of RelNext, take the shifted
// path; a target that reads next-state bits must fall back.
func TestShiftedProductsMatchComposition(t *testing.T) {
	const pairs = 6
	rng := rand.New(rand.NewSource(22))
	m, swap, cur, next, states, pool := twinManager(rng, pairs)
	shifted, fellBack := 0, 0
	for iter := 0; iter < 800; iter++ {
		f, g := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if got, want := m.RelNext(f, g, cur, swap), m.Replace(m.AndExists(f, g, cur), swap); got != want {
			t.Fatalf("iter %d: RelNext = %d, Replace(AndExists) = %d", iter, got, want)
		}
		if m.relNextRec(f, g, cur, swap, relOp(opRelNext, swap)) == shiftFail {
			t.Fatalf("iter %d: RelNext fell back on the interleaved order", iter)
		}
		if rng.Intn(2) == 0 {
			g = states[rng.Intn(len(states))]
		}
		if got, want := m.RelPrev(f, g, next, swap), m.AndExists(f, m.Replace(g, swap), next); got != want {
			t.Fatalf("iter %d: RelPrev = %d, AndExists(Replace) = %d", iter, got, want)
		}
		switch r := m.relPrevRec(f, g, next, swap, relOp(opRelPrev, swap)); {
		case r != shiftFail:
			shifted++
		case m.Exists(g, next) == g:
			t.Fatalf("iter %d: RelPrev fell back on a state-set target", iter)
		default:
			fellBack++
		}
	}
	if shifted == 0 || fellBack == 0 {
		t.Fatalf("RelPrev paths not both exercised: %d shifted, %d fallbacks", shifted, fellBack)
	}
}

// TestRelProductsKeepSeparateCacheKeys runs one operand triple through every
// product of the shared relational-product cache back to back, then checks
// each result against its composed reference computed from flushed caches.
// An op whose key lacked its tag would return another op's entry. AndDiff
// takes the cube as its third operand, so its key is the same triple.
func TestRelProductsKeepSeparateCacheKeys(t *testing.T) {
	const pairs = 5
	rng := rand.New(rand.NewSource(23))
	m, swap, cur, _, _, pool := twinManager(rng, pairs)
	for iter := 0; iter < 300; iter++ {
		f, g := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		cube := cur
		if iter%2 == 1 {
			cube = m.Ref(randCube(m, rng, 2*pairs))
		}
		m.FlushCaches()
		got := []Node{
			m.AndExists(f, g, cube),
			m.DiffExists(f, g, cube),
			m.RelNext(f, g, cube, swap),
			m.RelPrev(f, g, cube, swap),
			m.AndDiff(f, g, cube),
		}
		for _, r := range got {
			m.Ref(r)
		}
		m.FlushCaches()
		want := []Node{
			m.Exists(m.And(f, g), cube),
			m.Exists(m.Diff(f, g), cube),
			m.Replace(m.Exists(m.And(f, g), cube), swap),
			m.Exists(m.And(f, m.Replace(g, swap)), cube),
			m.Diff(m.And(f, g), cube),
		}
		for i, name := range []string{"AndExists", "DiffExists", "RelNext", "RelPrev", "AndDiff"} {
			if got[i] != want[i] {
				t.Fatalf("iter %d: %s = %d, reference %d", iter, name, got[i], want[i])
			}
			m.Deref(got[i])
		}
		if cube != cur {
			m.Deref(cube)
		}
	}
}

// TestShiftedProductsFallBack: once SetOrder moves a variable away from its
// twin, a product that needs the pair cannot shift; it must fall back and
// still build the reference node. A sifting pass that runs at the
// product's own safe point must be seen by the path decision too.
func TestShiftedProductsFallBack(t *testing.T) {
	const pairs = 5
	rng := rand.New(rand.NewSource(24))
	m, swap, cur, next, states, pool := twinManager(rng, pairs)
	check := func(stage string, iter int) {
		t.Helper()
		f, g, s := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], states[rng.Intn(len(states))]
		if got, want := m.RelNext(f, g, cur, swap), m.Replace(m.AndExists(f, g, cur), swap); got != want {
			t.Fatalf("%s %d: RelNext = %d, Replace(AndExists) = %d", stage, iter, got, want)
		}
		if got, want := m.RelPrev(f, s, next, swap), m.AndExists(f, m.Replace(s, swap), next); got != want {
			t.Fatalf("%s %d: RelPrev = %d, AndExists(Replace) = %d", stage, iter, got, want)
		}
	}

	// Separate pair 0: variable 1 (the twin of 0) goes to the bottom.
	order := []int{0}
	for v := 2; v < 2*pairs; v++ {
		order = append(order, v)
	}
	m.SetOrder(append(order, 1))
	// Both twins of pair 0 stand alone: the image's next-state node cannot
	// move up, the target's current-state node cannot be read down.
	if m.relNextRec(True, m.Var(1), True, swap, relOp(opRelNext, swap)) != shiftFail ||
		m.relPrevRec(True, m.Var(0), True, swap, relOp(opRelPrev, swap)) != shiftFail {
		t.Fatal("a separated twin did not stop the shifted recursion")
	}
	for iter := 0; iter < 200; iter++ {
		check("separated", iter)
	}

	// Random orders, and on every other product a sifting pass at the
	// product's own safe point.
	sifted := 0
	for iter := 0; iter < 200; iter++ {
		if iter%2 == 0 {
			m.SetOrder(rng.Perm(2 * pairs))
			check("reordered", iter)
			continue
		}
		runs := m.Stats().ReorderRuns
		m.reorderPending = true
		check("sifted", iter)
		if m.Stats().ReorderRuns > runs {
			sifted++
		}
	}
	if sifted == 0 {
		t.Fatal("no sifting pass ran at a product's safe point")
	}
}
