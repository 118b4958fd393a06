package bdd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// allocUntil creates nodes with direct mk calls until m holds live nodes
// (terminals included). Each node pairs two distinct nodes from the levels
// below it, so every (level, low, high) triple is new until the walk repeats
// an earlier call's prefix, which mk answers from the unique table.
func allocUntil(m *Manager, live int) {
	below := []Node{False, True}
	for level := int32(m.numVars - 1); level >= 0; level-- {
		var here []Node
		for _, lo := range below {
			for _, hi := range below {
				if m.Size() >= live {
					return
				}
				if lo != hi {
					here = append(here, m.mk(level, lo, hi))
				}
			}
		}
		below = append(below, here...)
	}
	panic("allocUntil: not enough levels")
}

// cacheSlots returns the slot count of m's four op caches, which must agree.
func cacheSlots(t *testing.T, m *Manager) int {
	t.Helper()
	n := len(m.bin)
	if len(m.ite) != n || len(m.un) != n || len(m.rel) != n {
		t.Fatalf("op caches disagree: ite %d bin %d un %d rel %d", len(m.ite), n, len(m.un), len(m.rel))
	}
	return n
}

// storeEntries writes one entry per op cache, keyed from base, each with
// result base+9.
func storeEntries(m *Manager, base Node) {
	m.iteStore(base, base+1, base+2, base+9)
	m.binStore(opAnd, base, base+3, base+9)
	m.unStore(opExists, base, base+4, base+9)
	m.relStore(opRelPrev, base, base+5, base+6, base+9)
}

// lookupEntries reports which of storeEntries(base)'s entries are hits.
func lookupEntries(m *Manager, base Node) [4]bool {
	var hit [4]bool
	var r [4]Node
	r[0], hit[0] = m.iteLookup(base, base+1, base+2)
	r[1], hit[1] = m.binLookup(opAnd, base, base+3)
	r[2], hit[2] = m.unLookup(opExists, base, base+4)
	r[3], hit[3] = m.relLookup(opRelPrev, base, base+5, base+6)
	for i := range r {
		hit[i] = hit[i] && r[i] == base+9
	}
	return hit
}

// TestOpCacheGrowth pins the sizing rule: a manager's op caches start at
// cacheMinSlots, double only once an allocation pushes the live count past
// cacheLoad times the slot count, and stop at cacheMaxSlots. A doubling
// keeps the entries of the current epoch and drops those of flushed ones.
func TestOpCacheGrowth(t *testing.T) {
	m := New()
	m.NewVars(8)
	if got := cacheSlots(t, m); got != cacheMinSlots {
		t.Fatalf("new manager: %d slots, want %d", got, cacheMinSlots)
	}
	allocUntil(m, cacheLoad*cacheMinSlots)
	if got := cacheSlots(t, m); got != cacheMinSlots {
		t.Fatalf("at %d live nodes: %d slots, want %d", m.Size(), got, cacheMinSlots)
	}
	const stale, kept = Node(100), Node(200)
	storeEntries(m, stale)
	m.FlushCaches()
	storeEntries(m, kept)
	allocUntil(m, cacheLoad*cacheMinSlots+1)
	if got := cacheSlots(t, m); got != 2*cacheMinSlots {
		t.Fatalf("at %d live nodes: %d slots, want %d", m.Size(), got, 2*cacheMinSlots)
	}
	if got := lookupEntries(m, kept); got != [4]bool{true, true, true, true} {
		t.Fatalf("entries stored before the doubling: ite, bin, un, rel hits %v", got)
	}
	if got := lookupEntries(m, stale); got != [4]bool{} {
		t.Fatalf("entries of a flushed epoch: ite, bin, un, rel hits %v", got)
	}
	if m.cacheGrowAt != cacheLoad*2*cacheMinSlots {
		t.Fatalf("next growth armed at %d live nodes, want %d", m.cacheGrowAt, cacheLoad*2*cacheMinSlots)
	}

	// The ceiling: arm the trigger at the current live count, one doubling
	// per allocation, until the rule disarms itself.
	for i := 0; m.cacheGrowAt != math.MaxInt64; i++ {
		if i > 10 {
			t.Fatalf("caches never stopped growing: %d slots", cacheSlots(t, m))
		}
		m.cacheGrowAt = int64(m.Size())
		allocUntil(m, m.Size()+1)
	}
	if got := cacheSlots(t, m); got != cacheMaxSlots {
		t.Fatalf("caches stopped at %d slots, want %d", got, cacheMaxSlots)
	}
}

// TestOpCachesPinnedAtFloor replays one random operation sequence on a
// manager whose caches are pinned at the floor and on one whose caches grow
// at random points, usually mid-recursion (the test arms the growth trigger
// a few allocations ahead), and checks that every result is the same node in
// both: cache capacity and growth change hit rates, never a node.
func TestOpCachesPinnedAtFloor(t *testing.T) {
	const nvars = 14
	rng := rand.New(rand.NewSource(11))
	arm := rand.New(rand.NewSource(12))
	pinned, grown := New(), New()
	pinned.cacheGrowAt = math.MaxInt64 // the test hook: never grow
	pinned.NewVars(nvars)
	grown.NewVars(nvars)
	var pp, pg []Node
	for i := 0; i < nvars; i++ {
		pp = append(pp, pinned.Ref(pinned.Var(i)))
		pg = append(pg, grown.Ref(grown.Var(i)))
	}
	arms := 0
	for step := 0; step < 600; step++ {
		f := randFormula(rng, len(pp), nvars)
		if len(grown.bin) < cacheMaxSlots && arm.Intn(40) == 0 {
			grown.cacheGrowAt = int64(grown.Size() + arm.Intn(16))
			arms++
		}
		a, b := pinned.Ref(f(pinned, pp)), grown.Ref(f(grown, pg))
		if a != b {
			t.Fatalf("step %d: pinned caches gave node %d, growing caches node %d", step, a, b)
		}
		pp, pg = append(pp, a), append(pg, b)
	}
	if got := cacheSlots(t, pinned); got != cacheMinSlots {
		t.Fatalf("pinned manager grew to %d slots", got)
	}
	if got := cacheSlots(t, grown); got <= cacheMinSlots || arms == 0 {
		t.Fatalf("growing manager stayed at %d slots (%d arms)", got, arms)
	}
}

// nodeCountRef is the map-based reference walk for NodeCount.
func nodeCountRef(m *Manager, f Node) int {
	seen := map[Node]bool{}
	var rec func(Node)
	rec = func(g Node) {
		if seen[g] {
			return
		}
		seen[g] = true
		if g > True {
			rec(m.nodes[g].low)
			rec(m.nodes[g].high)
		}
	}
	rec(f)
	return len(seen)
}

// checkNodeCount compares NodeCount with the reference twice in a row and
// checks that the mark bitset is left clean.
func checkNodeCount(m *Manager, f Node) error {
	want := nodeCountRef(m, f)
	for i := 0; i < 2; i++ {
		if got := m.NodeCount(f); got != want {
			return fmt.Errorf("NodeCount(%d) call %d = %d, want %d", f, i+1, got, want)
		}
	}
	for i, w := range m.countMarks {
		if w != 0 {
			return fmt.Errorf("mark word %d left set after NodeCount(%d)", i, f)
		}
	}
	return nil
}

// TestNodeCountMatchesMapWalk checks NodeCount against the map-based
// reference on random functions.
func TestNodeCountMatchesMapWalk(t *testing.T) {
	const nvars = 10
	rng := rand.New(rand.NewSource(5))
	m := New()
	m.NewVars(nvars)
	pool := []Node{False, True}
	for i := 0; i < nvars; i++ {
		pool = append(pool, m.Ref(m.Var(i)))
	}
	for len(pool) < 150 {
		f := randFormula(rng, len(pool), nvars)
		pool = append(pool, m.Ref(f(m, pool)))
	}
	// ADD terminals link to themselves; the walk must stop there too.
	sum := m.Ref(m.AddPlus(m.FromBDD(pool[60], 3), m.FromBDD(pool[90], 5)))
	for _, f := range append([]Node{sum}, pool...) {
		if err := checkNodeCount(m, f); err != nil {
			t.Fatal(err)
		}
	}
}
