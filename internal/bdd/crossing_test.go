package bdd

import "testing"

// crossingManager returns a manager on nvars variables whose collections
// come only from the unique table's load limit: the cadence is the default
// one whatever REPRO_GC_STRESS says, and no sifting pass runs, because a
// cadence collection or a pass would flush the caches these tests inspect.
func crossingManager(nvars int) *Manager {
	m := New()
	m.SetGCThreshold(defaultGCThreshold)
	m.SetReorderThreshold(0)
	m.NewVars(nvars)
	return m
}

// cross allocates garbage with direct mk calls until an allocation pushes
// the live count past the unique table's limit.
func cross(m *Manager) { allocUntil(m, int(m.uniqueAt)+1) }

// atSafePoint runs a public operation, whose safe point runs whatever
// collection is armed.
func atSafePoint(m *Manager) { m.Not(True) }

// cacheFamily is one op cache seen through a family-neutral entry: its op
// codes, its key fields and which of them name a node.
type cacheFamily struct {
	name   string
	ops    map[string]uint32
	node   func(op uint32) []bool // per key field: does it name a node?
	store  func(m *Manager, op uint32, k []Node, res Node)
	lookup func(m *Manager, op uint32, k []Node) (Node, bool)
}

func allNodes(n int) func(uint32) []bool {
	return func(uint32) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = true
		}
		return out
	}
}

var cacheFamilies = []cacheFamily{
	{
		name: "ite",
		ops:  map[string]uint32{"ITE": 0},
		node: allNodes(3),
		store: func(m *Manager, _ uint32, k []Node, res Node) {
			m.iteStore(k[0], k[1], k[2], res)
		},
		lookup: func(m *Manager, _ uint32, k []Node) (Node, bool) {
			return m.iteLookup(k[0], k[1], k[2])
		},
	},
	{
		name: "bin",
		ops: map[string]uint32{
			"And": opAnd, "Or": opOr, "Xor": opXor, "Diff": opDiff,
			"AddPlus": opAddPlus, "AddMin": opAddMin, "AddMax": opAddMax,
		},
		node: allNodes(2),
		store: func(m *Manager, op uint32, k []Node, res Node) {
			m.binStore(op, k[0], k[1], res)
		},
		lookup: func(m *Manager, op uint32, k []Node) (Node, bool) {
			return m.binLookup(op, k[0], k[1])
		},
	},
	{
		name: "un",
		ops: map[string]uint32{
			"Exists": opExists, "Forall": opForall, "MinAbstract": opMinAbstract,
			"FromBDD": opFromBDD, "Threshold": opThreshold,
			"Not": opNot, "Cof0": opCof0, "Cof1": opCof1, "Replace": opReplace,
		},
		node: func(op uint32) []bool {
			switch op {
			case opNot, opCof0, opCof1, opReplace:
				return []bool{true, false} // 0, a level, a permutation id
			}
			return []bool{true, true} // a cube or an ADD terminal
		},
		store: func(m *Manager, op uint32, k []Node, res Node) {
			m.unStore(op, k[0], k[1], res)
		},
		lookup: func(m *Manager, op uint32, k []Node) (Node, bool) {
			return m.unLookup(op, k[0], k[1])
		},
	},
	{
		name: "rel",
		ops: map[string]uint32{
			"AndExists": opAndExists, "DiffExists": opDiffExists, "AndDiff": opAndDiff,
			"RelNext": relOp(opRelNext, &Permutation{id: 3}),
			"RelPrev": relOp(opRelPrev, &Permutation{id: 3}),
		},
		node: allNodes(3),
		store: func(m *Manager, op uint32, k []Node, res Node) {
			m.relStore(op, k[0], k[1], k[2], res)
		},
		lookup: func(m *Manager, op uint32, k []Node) (Node, bool) {
			return m.relLookup(op, k[0], k[1], k[2])
		},
	},
}

// TestCrossingPruneKeepsEntriesOfSurvivors checks the prune of a crossing
// collection on every op cache and op code: an entry survives iff every node
// it names survives — each key that names a node, and the result. A key that
// names no node (Not's 0, a cofactor level, Replace's permutation id) holds
// the index of a freed node throughout and must not cost the entry its life.
func TestCrossingPruneKeepsEntriesOfSurvivors(t *testing.T) {
	for _, fam := range cacheFamilies {
		for name, op := range fam.ops {
			isNode := fam.node(op)
			// dead is the position that names a freed node: a key, the
			// result (len(isNode)), or none (-1).
			for dead := -1; dead <= len(isNode); dead++ {
				if dead >= 0 && dead < len(isNode) && !isNode[dead] {
					continue
				}
				m := crossingManager(8)
				freed := m.mk(0, True, False) // unrooted: the crossing frees it
				keys := make([]Node, len(isNode))
				for i := range keys {
					keys[i] = m.Ref(m.Var(i + 1))
					if !isNode[i] || i == dead {
						keys[i] = freed
					}
				}
				res := m.Ref(m.Var(7))
				if dead == len(isNode) {
					res = freed
				}
				fam.store(m, op, keys, res)
				cross(m)
				atSafePoint(m)
				if m.Stats().GCRuns != 1 || m.nodes[freed].level != freeLevel {
					t.Fatalf("%s/%s: the crossing did not free node %d (%d collections)", fam.name, name, freed, m.Stats().GCRuns)
				}
				r, hit := fam.lookup(m, op, keys)
				if want := dead < 0; hit != want || hit && r != res {
					t.Errorf("%s/%s with position %d freed: hit %v (node %d), want hit %v (node %d)",
						fam.name, name, dead, hit, r, want, res)
				}
			}
		}
	}
}

// TestCrossingPruneRecomputesReusedOperand frees an operand whose result
// survives, lets a different function take the operand's slot, and checks
// that the operation on the new function recomputes instead of returning the
// cached result of the old one.
func TestCrossingPruneRecomputesReusedOperand(t *testing.T) {
	m := crossingManager(8)
	for i := 0; i < 8; i++ {
		m.Ref(m.Var(i)) // no free slot below the first node after them
	}
	x0, x1, x2 := m.Var(0), m.Var(1), m.Var(2)
	old := m.Or(x0, x1) // the first node after the variables
	if got := m.And(old, x1); got != x1 {
		t.Fatalf("(x0 ∨ x1) ∧ x1 = node %d, want x1 (%d)", got, x1)
	}
	for i := 0; i < recentRing; i++ {
		m.Var(0) // push old out of the recent-results ring
	}
	cross(m)
	atSafePoint(m)
	if m.nodes[old].level != freeLevel {
		t.Fatalf("the crossing collection kept node %d", old)
	}
	reused := m.Or(x0, x2)
	if reused != old {
		t.Fatalf("x0 ∨ x2 took node %d, not the freed slot %d", reused, old)
	}
	got := m.And(reused, x1)
	for a := 0; a < 1<<3; a++ {
		asg := assignment(a, 8)
		if want := (asg[0] || asg[2]) && asg[1]; m.Eval(got, asg) != want {
			t.Fatalf("(x0 ∨ x2) ∧ x1 is wrong at assignment %03b: the cache answered for the slot's old function", a)
		}
	}
}

// TestCrossingCollectsGarbageInPlace fills the unique table past its load
// limit with garbage: the safe point collects instead of doubling, keeps the
// cache entries of the rooted nodes, and the next crossing collects again.
func TestCrossingCollectsGarbageInPlace(t *testing.T) {
	m := crossingManager(8)
	f, g := m.Ref(m.Var(1)), m.Ref(m.Var(2))
	fg := m.Ref(m.And(f, g))
	slots := len(m.unique)
	cross(m)
	if len(m.unique) != slots {
		t.Fatalf("the crossing grew the table from %d to %d slots before its safe point", slots, len(m.unique))
	}
	atSafePoint(m)
	st := m.Stats()
	if st.GCRuns != 1 || len(m.unique) != slots {
		t.Fatalf("after the safe point: %d collections, %d slots; want 1 collection at %d slots", st.GCRuns, len(m.unique), slots)
	}
	if m.skipCross || int(st.NodesLive)*4 > slots {
		t.Fatalf("%d live nodes left, skip the next crossing %v; want a good yield", st.NodesLive, m.skipCross)
	}
	if r, hit := m.binLookup(opAnd, f, g); !hit || r != fg {
		t.Fatalf("the crossing collection dropped And(%d, %d) = %d (hit %v, node %d)", f, g, fg, hit, r)
	}
	cross(m)
	atSafePoint(m)
	if st := m.Stats(); st.GCRuns != 2 || len(m.unique) != slots {
		t.Fatalf("second crossing: %d collections, %d slots; want 2 at %d slots", st.GCRuns, len(m.unique), slots)
	}
}

// TestCrossingWithoutGarbageDoublesOnce fills the unique table past its load
// limit with rooted nodes: the collection frees nothing, so it doubles the
// table, and its poor yield makes the next crossing double without
// collecting. Every node stays hash-consed through both.
func TestCrossingWithoutGarbageDoublesOnce(t *testing.T) {
	m := crossingManager(8)
	slots := len(m.unique)
	cross(m)
	for i := 2; i < len(m.nodes); i++ {
		m.Ref(Node(i))
	}
	atSafePoint(m)
	if st := m.Stats(); st.GCRuns != 1 || st.NodesFreed != 0 || len(m.unique) != 2*slots {
		t.Fatalf("after the first crossing: %d collections freeing %d, %d slots; want 1 freeing 0 at %d slots",
			st.GCRuns, st.NodesFreed, len(m.unique), 2*slots)
	}
	if !m.skipCross || m.uniqueAt != int64(2*slots*uniqueLoadNum/uniqueLoadDen) {
		t.Fatalf("skip %v, limit %d; want the next crossing skipped at %d", m.skipCross, m.uniqueAt, 2*slots*uniqueLoadNum/uniqueLoadDen)
	}
	cross(m)
	if st := m.Stats(); st.GCRuns != 1 || len(m.unique) != 4*slots || m.crossPending || m.skipCross {
		t.Fatalf("after the skipped crossing: %d collections, %d slots, armed %v, skip %v; want 1 at %d slots, neither",
			st.GCRuns, len(m.unique), m.crossPending, m.skipCross, 4*slots)
	}
	for i := 2; i < len(m.nodes); i++ {
		n := m.nodes[i]
		if got := m.mk(n.level, n.low, n.high); got != Node(i) {
			t.Fatalf("node %d is no longer hash-consed: mk gave %d", i, got)
		}
	}
}

// TestCrossingRecursionGrowsAtCeiling keeps allocating after a crossing armed
// its collection, with no safe point in between, as one long recursion does:
// mk doubles the table by itself at the hard ceiling and disarms the
// collection.
func TestCrossingRecursionGrowsAtCeiling(t *testing.T) {
	m := crossingManager(8)
	slots := len(m.unique)
	cross(m)
	if want := int64(slots * uniqueCeilNum / uniqueLoadDen); m.uniqueAt != want {
		t.Fatalf("armed crossing: limit %d, want the ceiling %d", m.uniqueAt, want)
	}
	cross(m)
	if len(m.unique) != 2*slots || m.crossPending || m.Stats().GCRuns != 0 {
		t.Fatalf("past the ceiling: %d slots, armed %v, %d collections; want %d slots, disarmed, none",
			len(m.unique), m.crossPending, m.Stats().GCRuns, 2*slots)
	}
	atSafePoint(m)
	if m.Stats().GCRuns != 0 {
		t.Fatal("the safe point after a ceiling doubling collected")
	}
}

// TestCrossingGrowOnlyWithoutThreshold checks that SetGCThreshold(0) keeps
// the grow-only table: a crossing doubles at once and nothing collects, also
// when the threshold drops to 0 with a crossing already armed.
func TestCrossingGrowOnlyWithoutThreshold(t *testing.T) {
	m := crossingManager(8)
	m.SetGCThreshold(0)
	slots := len(m.unique)
	cross(m)
	atSafePoint(m)
	if len(m.unique) != 2*slots || m.crossPending || m.Stats().GCRuns != 0 {
		t.Fatalf("grow-only crossing: %d slots, armed %v, %d collections; want %d slots, none",
			len(m.unique), m.crossPending, m.Stats().GCRuns, 2*slots)
	}

	m = crossingManager(8)
	cross(m)
	m.SetGCThreshold(0)
	atSafePoint(m)
	if len(m.unique) != 2*slots || m.crossPending || m.Stats().GCRuns != 0 {
		t.Fatalf("threshold dropped to 0 while armed: %d slots, armed %v, %d collections; want %d slots, none",
			len(m.unique), m.crossPending, m.Stats().GCRuns, 2*slots)
	}
}
