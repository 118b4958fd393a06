package bdd

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestGCReclaimsGarbage checks that unrooted nodes are swept, rooted nodes
// survive, and the counters move.
func TestGCReclaimsGarbage(t *testing.T) {
	m := New()
	m.NewVars(8)

	// Build a sizeable rooted function and a pile of garbage.
	f := True
	for i := 0; i < 8; i += 2 {
		f = m.And(f, m.Or(m.Var(i), m.Var(i+1)))
	}
	m.Ref(f)
	for i := 0; i < 200; i++ {
		g := m.Xor(m.Var(i%8), m.Var((i+3)%8))
		m.Or(g, m.Var((i+5)%8))
	}

	before := m.Size()
	runs0 := m.Stats().GCRuns // stress mode may have collected already
	m.GC()
	after := m.Size()
	st := m.Stats()
	if st.GCRuns != runs0+1 {
		t.Fatalf("GCRuns = %d, want %d", st.GCRuns, runs0+1)
	}
	if st.NodesFreed == 0 || after >= before {
		t.Fatalf("GC freed nothing: size %d -> %d, freed %d", before, after, st.NodesFreed)
	}
	// The rooted function must still denote the same set.
	want := 0
	for a := 0; a < 256; a++ {
		asg := assignment(a, 8)
		ok := true
		for i := 0; i < 8; i += 2 {
			if !asg[i] && !asg[i+1] {
				ok = false
			}
		}
		if ok {
			want++
		}
		if m.Eval(f, asg) != ok {
			t.Fatalf("rooted function corrupted at assignment %d", a)
		}
	}
	if got := m.SatCount(f); got != float64(want) {
		t.Fatalf("SatCount after GC = %g, want %d", got, want)
	}
	m.Deref(f)
}

func assignment(bits, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = bits&(1<<i) != 0
	}
	return out
}

// TestGCNodeReuse checks that slots freed by a collection are actually
// reused by subsequent allocations (the table does not just keep growing).
func TestGCNodeReuse(t *testing.T) {
	m := New()
	m.NewVars(12)
	minterm := func(i int) {
		f := True
		for j := 0; j < 12; j++ {
			if i&(1<<j) != 0 {
				f = m.And(f, m.Var(j))
			} else {
				f = m.And(f, m.NVar(j))
			}
		}
	}
	// Enough distinct garbage to rotate well past the recent-results ring.
	for i := 0; i < 512; i++ {
		minterm(i)
	}
	grown := len(m.nodes)
	m.GC()
	if m.freeCnt == 0 {
		t.Fatal("expected free slots after GC")
	}
	// Rebuild similar garbage; the backing array should not grow.
	for i := 0; i < 128; i++ {
		minterm(i)
	}
	if len(m.nodes) > grown {
		t.Fatalf("node table grew from %d to %d despite free list", grown, len(m.nodes))
	}
}

// randFormula is the random-formula generator the property tests share. It
// draws one operation — And, Or, Xor, Diff, Not, ITE, AndExists, or
// Exists/Forall over a random two-variable cube — with operands picked from a
// pool of n live functions, and returns it as a closure that performs the
// operation on a manager, given that manager's copy of the pool. The pool's
// nodes must be rooted: the cube is built after the operands are read.
func randFormula(rng *rand.Rand, n, nvars int) func(m *Manager, p []Node) Node {
	x, y, z := rng.Intn(n), rng.Intn(n), rng.Intn(n)
	levels := []int{rng.Intn(nvars), rng.Intn(nvars)}
	switch rng.Intn(9) {
	case 0:
		return func(m *Manager, p []Node) Node { return m.And(p[x], p[y]) }
	case 1:
		return func(m *Manager, p []Node) Node { return m.Or(p[x], p[y]) }
	case 2:
		return func(m *Manager, p []Node) Node { return m.Xor(p[x], p[y]) }
	case 3:
		return func(m *Manager, p []Node) Node { return m.Diff(p[x], p[y]) }
	case 4:
		return func(m *Manager, p []Node) Node { return m.Not(p[x]) }
	case 5:
		return func(m *Manager, p []Node) Node { return m.ITE(p[x], p[y], p[z]) }
	case 6:
		return func(m *Manager, p []Node) Node { return m.AndExists(p[x], p[y], m.Cube(levels)) }
	case 7:
		return func(m *Manager, p []Node) Node { return m.Exists(p[x], m.Cube(levels)) }
	default:
		return func(m *Manager, p []Node) Node { return m.Forall(p[x], m.Cube(levels)) }
	}
}

// TestGCPropertyTwinManager is the GC correctness property test: it
// interleaves random formula construction, rooting/unrooting, and forced
// collections on one manager while mirroring the same operations on a
// GC-free twin, then compares full truth tables of every live pair.
func TestGCPropertyTwinManager(t *testing.T) {
	const nvars = 6
	rng := rand.New(rand.NewSource(42))

	for round := 0; round < 20; round++ {
		a := New() // manager under test: forced GC
		b := New() // twin: never collects
		a.SetGCThreshold(0)
		b.SetGCThreshold(0)
		a.NewVars(nvars)
		b.NewVars(nvars)

		var la, lb []Node // live functions, pairwise equal across a and b
		for i := 0; i < nvars; i++ {
			la = append(la, a.Ref(a.Var(i)))
			lb = append(lb, b.Var(i))
		}

		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				f := randFormula(rng, len(la), nvars)
				la = append(la, a.Ref(f(a, la)))
				lb = append(lb, f(b, lb))
			case op < 8: // unroot a random pair (keep the variables alive)
				if len(la) > nvars {
					i := nvars + rng.Intn(len(la)-nvars)
					a.Deref(la[i])
					la = append(la[:i], la[i+1:]...)
					lb = append(lb[:i], lb[i+1:]...)
				}
			default: // forced collection on the manager under test
				a.GC()
			}
		}
		a.GC()

		// Every surviving pair must denote the same function.
		for i := range la {
			for bits := 0; bits < 1<<nvars; bits++ {
				asg := assignment(bits, nvars)
				if a.Eval(la[i], asg) != b.Eval(lb[i], asg) {
					t.Fatalf("round %d: pair %d diverges at assignment %06b", round, i, bits)
				}
			}
			if a.SatCount(la[i]) != b.SatCount(lb[i]) {
				t.Fatalf("round %d: pair %d SatCount diverges", round, i)
			}
		}
	}
}

// TestDiffMatchesAndNot checks the native Diff against its definition
// And(f, Not(g)) node for node (in one hash-consed table the same function
// is the same node) on random functions, the constants, and equal operands.
// Under REPRO_GC_STRESS collections land between the two computations.
func TestDiffMatchesAndNot(t *testing.T) {
	const nvars = 8
	rng := rand.New(rand.NewSource(7))
	m := New()
	m.NewVars(nvars)
	pool := []Node{False, True}
	for i := 0; i < nvars; i++ {
		pool = append(pool, m.Ref(m.Var(i)))
	}
	for len(pool) < 200 {
		f := randFormula(rng, len(pool), nvars)
		pool = append(pool, m.Ref(f(m, pool)))
	}
	for i := 0; i < 4000; i++ {
		f, g := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if i%50 == 0 {
			g = f
		}
		d := m.Ref(m.Diff(f, g))
		if want := m.And(f, m.Not(g)); d != want {
			t.Fatalf("Diff(%d, %d) = node %d, And(f, Not(g)) = node %d", f, g, d, want)
		}
		m.Deref(d)
	}
}

// TestGCDeterministicExports runs the same operation sequence with
// aggressive automatic GC and with GC disabled and checks that the exported
// (canonical) encodings of the results are byte-identical: collections must
// not influence any function the computation produces.
func TestGCDeterministicExports(t *testing.T) {
	build := func(threshold int64) [][]byte {
		m := New()
		m.SetGCThreshold(threshold)
		m.NewVars(10)
		acc := m.NewRooted(True)
		var outs [][]byte
		for i := 0; i < 10; i++ {
			clause := m.Or(m.Var(i), m.NVar((i+3)%10))
			acc.Set(m.And(acc.Node(), clause))
			step := m.Xor(acc.Node(), m.Var((i+5)%10))
			outs = append(outs, m.Export(m.ITE(step, acc.Node(), m.Not(step))))
		}
		outs = append(outs, m.Export(acc.Node()))
		return outs
	}
	noGC := build(0)
	withGC := build(8) // collect every 8 allocations
	if len(noGC) != len(withGC) {
		t.Fatal("length mismatch")
	}
	for i := range noGC {
		if !bytes.Equal(noGC[i], withGC[i]) {
			t.Fatalf("export %d differs between GC-off and aggressive GC", i)
		}
	}
}

// TestNodeBudget checks that exceeding the budget surfaces as a *BudgetError
// panic at a safe point, and that a budget that GC can satisfy does not trip.
func TestNodeBudget(t *testing.T) {
	m := New()
	m.SetGCThreshold(0)
	m.NewVars(16)
	m.SetNodeBudget(64)

	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if be, ok := r.(*BudgetError); ok {
					err = be
					return
				}
				panic(r)
			}
		}()
		f := True
		for i := 0; i < 16; i++ {
			f = m.Ref(m.Xor(f, m.Var(i)))
		}
		return nil
	}()
	var be *BudgetError
	if err == nil {
		t.Fatal("expected BudgetError, got nil")
	}
	if !errorsAs(err, &be) {
		t.Fatalf("expected *BudgetError, got %v", err)
	}
	if be.Budget != 64 || be.Live <= 64 {
		t.Fatalf("implausible BudgetError: %+v", be)
	}

	// A generous budget over collectable garbage must not trip: the safe
	// point collects and continues.
	m2 := New()
	m2.SetGCThreshold(0)
	m2.NewVars(12)
	m2.SetNodeBudget(8192)
	for i := 0; i < 1<<12; i++ {
		f := True // distinct unrooted minterm per iteration
		for j := 0; j < 12; j++ {
			if i&(1<<j) != 0 {
				f = m2.And(f, m2.Var(j))
			} else {
				f = m2.And(f, m2.NVar(j))
			}
		}
	}
	if m2.Stats().GCRuns == 0 {
		t.Fatal("budget pressure never triggered a collection")
	}
}

func errorsAs(err error, target **BudgetError) bool {
	be, ok := err.(*BudgetError)
	if ok {
		*target = be
	}
	return ok
}

// TestRootedAndScope exercises the handle helpers.
func TestRootedAndScope(t *testing.T) {
	m := New()
	m.NewVars(4)

	sc := m.Protect()
	kept := sc.Keep(m.And(m.Var(0), m.Var(1)))
	slot := sc.Slot(m.Var(2))
	slot.Set(m.Or(slot.Node(), m.Var(3)))
	m.GC()
	if m.Eval(kept, []bool{true, true, false, false}) != true {
		t.Fatal("kept node corrupted")
	}
	if m.Eval(slot.Node(), []bool{false, false, false, true}) != true {
		t.Fatal("slot node corrupted")
	}
	sc.Release()
	sc.Release() // idempotent

	r := m.NewRooted(m.And(m.Var(0), m.Var(3)))
	m.GC()
	if m.Eval(r.Node(), []bool{true, false, false, true}) != true {
		t.Fatal("rooted node corrupted")
	}
	r.Release()
	r.Release() // idempotent

	// Unbalanced Deref must panic loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on unbalanced Deref")
			}
		}()
		m.Deref(m.And(m.Var(0), m.Var(1)))
	}()
}

// TestFlushCachesIndependent checks that FlushCaches is usable on its own
// and does not disturb node storage or results.
func TestFlushCachesIndependent(t *testing.T) {
	m := New()
	m.NewVars(6)
	f := m.And(m.Or(m.Var(0), m.Var(1)), m.Xor(m.Var(2), m.Var(5)))
	n := m.Size()
	m.FlushCaches()
	if m.Size() != n {
		t.Fatal("FlushCaches changed node storage")
	}
	g := m.And(m.Or(m.Var(0), m.Var(1)), m.Xor(m.Var(2), m.Var(5)))
	if f != g {
		t.Fatal("rebuild after FlushCaches produced a different node")
	}
}

// TestStaleNodePanics checks that CheckNode detects a node that was swept.
func TestStaleNodePanics(t *testing.T) {
	m := New()
	m.NewVars(4)
	f := m.And(m.Var(0), m.Var(1))
	g := m.Xor(f, m.Var(2))
	_ = g
	// Overwrite the ring so f has no root left, then collect.
	for i := 0; i < recentRing+8; i++ {
		m.Or(m.Var(3), m.NVar(3))
	}
	m.GC()
	defer func() {
		if recover() == nil {
			t.Fatal("expected CheckNode to panic on a collected node")
		}
	}()
	m.CheckNode(f)
}

// TestSatMemoBounded checks the sat memo cannot grow past its limit by more
// than one walk's worth of entries.
func TestSatMemoBounded(t *testing.T) {
	m := New()
	m.NewVars(20)
	for i := 0; i < 64; i++ {
		f := m.Var(i % 20)
		for j := 0; j < 19; j++ {
			f = m.Xor(f, m.Var((i+j)%20))
		}
		m.SatCount(f)
	}
	if len(m.sat) > satMemoLimit {
		t.Fatalf("sat memo exceeded bound: %d entries", len(m.sat))
	}
}
