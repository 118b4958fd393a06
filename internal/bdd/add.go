package bdd

// This file implements ADDs (algebraic decision diagrams, also known as
// MTBDDs): decision diagrams whose terminals carry int64 weights instead of
// just false/true. The cost-aware repair pipeline uses them to attach a
// removal cost to every transition of a program and to reason about whole
// weighted transition sets symbolically.
//
// Representation. A weighted terminal is an ordinary node slot whose level is
// terminalLevel and whose low and high fields point at the slot itself — the
// same shape as the built-in False/True records, so the GC mark phase, the
// sweep, the unique-table rebuilds and CheckNode all handle them with no
// special cases. The two Boolean terminals double as the ADD constants 0
// (False) and 1 (True), which makes every BDD also a 0/1-valued ADD and the
// ITE combinator the Boolean↔ADD multiplexer for free. Terminals are interned
// through side maps (value ↔ node) and permanently rooted at creation:
//
//   - the permanent ref keeps the intern maps valid across collections (a
//     freed-and-reused slot would silently alias another function), and
//   - it marks the terminal externally rooted during reorder sessions, which
//     short-circuits the incEdge/decEdge death cascade that would otherwise
//     chase the terminal's self-loop forever.
//
// Reordering. Terminal records sit at terminalLevel, below every variable, so
// sifting never moves them; buildReorderLists skips them when indexing levels
// (their level is not a valid rl index and their self-loops would count as
// parents). The apply recursions below compare levels just like apply.go, so
// they are correct under any variable order.
//
// Arithmetic. Weights are int64. AddInf (MaxInt64) serves as +∞; addSat is
// the saturating addition that keeps it absorbing. MinAbstract is the
// min-analogue of Exists: it projects a cube of variables out of a weighted
// function by taking the cheapest branch, the existential cost projection
// used to price transition groups.
//
// Concurrency. Terminal interning mutates manager-level maps, so ADD
// operations follow the Manager rule: one goroutine at a time. The repair
// pipeline computes all costs on the owning manager, never on a worker
// manager, which keeps weighted runs byte-identical across worker counts.

import (
	"fmt"
	"math"
	"sort"
)

// AddInf is the +∞ weight: the identity of AddMin and an absorbing element of
// saturating addition. Threshold and friends treat it like any other value.
const AddInf int64 = math.MaxInt64

// addSat is saturating addition: results beyond the int64 range clamp to
// AddInf / MinInt64 instead of wrapping, so +∞ stays absorbing.
func addSat(a, b int64) int64 {
	s := a + b
	switch {
	case a > 0 && b > 0 && s < 0:
		return AddInf
	case a < 0 && b < 0 && s >= 0:
		return math.MinInt64
	}
	return s
}

// isAddTerm reports whether f is a terminal of an ADD: one of the Boolean
// terminals or a weighted terminal record.
func (m *Manager) isAddTerm(f Node) bool {
	return f <= True || m.nodes[f].level == terminalLevel
}

// IsAddTerminal reports whether f is an ADD terminal (a constant function):
// False (0), True (1), or a weighted terminal created by AddConst.
func (m *Manager) IsAddTerminal(f Node) bool {
	m.CheckNode(f)
	return m.isAddTerm(f)
}

// AddValue returns the weight of an ADD terminal. It panics if f is not a
// terminal; use IsAddTerminal to test first.
func (m *Manager) AddValue(f Node) int64 {
	m.CheckNode(f)
	return m.addTermValue(f)
}

func (m *Manager) addTermValue(f Node) int64 {
	switch f {
	case False:
		return 0
	case True:
		return 1
	}
	v, ok := m.addVal[f]
	if !ok {
		panic(fmt.Sprintf("bdd: AddValue of non-terminal node %d", f))
	}
	return v
}

// AddConst returns the constant ADD with the given value. Values 0 and 1 are
// the Boolean terminals False and True; other values are interned weighted
// terminals, permanently rooted in the manager (they are shared leaves of
// every weighted function, so they live as long as the manager does).
func (m *Manager) AddConst(v int64) Node {
	m.safe(False, False, False)
	return m.addConst(v)
}

// addConst is AddConst without the safe point, for use inside recursions.
func (m *Manager) addConst(v int64) Node {
	switch v {
	case 0:
		return False
	case 1:
		return True
	}
	if t, ok := m.addTerm[v]; ok {
		return t
	}
	var idx Node
	if m.freeHead != 0 {
		idx = m.freeHead
		m.freeHead = m.nodes[idx].low
		m.freeCnt--
	} else {
		idx = Node(len(m.nodes))
		m.nodes = append(m.nodes, node{})
	}
	m.nodes[idx] = node{level: terminalLevel, low: idx, high: idx}
	m.uniqueInsert(idx)
	m.stats.NodesAllocated++
	m.allocSince++
	if m.gcThreshold > 0 && m.allocSince >= m.gcThreshold {
		m.gcPending = true
	}
	live := int64(len(m.nodes) - m.freeCnt)
	if live > m.stats.PeakLive {
		m.stats.PeakLive = live
	}
	if m.nodeBudget > 0 && live > m.nodeBudget {
		m.gcPending = true
		m.budgetHit = true
	}
	if uint64(live)*4 > uint64(len(m.unique))*3 {
		m.growUnique(uint64(len(m.unique)) * 2)
	}
	if m.addTerm == nil {
		m.addTerm = make(map[int64]Node)
		m.addVal = make(map[Node]int64)
	}
	m.addTerm[v] = idx
	m.addVal[idx] = v
	m.Ref(idx) // permanent: keeps the intern maps valid across collections
	return idx
}

// AddPlus returns the pointwise saturating sum f + g of two ADDs.
func (m *Manager) AddPlus(f, g Node) Node {
	m.safe(f, g, False)
	return m.keep(m.addApplyRec(opAddPlus, f, g))
}

// AddMin returns the pointwise minimum of two ADDs.
func (m *Manager) AddMin(f, g Node) Node {
	m.safe(f, g, False)
	return m.keep(m.addApplyRec(opAddMin, f, g))
}

// AddMax returns the pointwise maximum of two ADDs.
func (m *Manager) AddMax(f, g Node) Node {
	m.safe(f, g, False)
	return m.keep(m.addApplyRec(opAddMax, f, g))
}

// addApply evaluates one binary apply operator on two terminal values.
func addApply(op uint32, a, b int64) int64 {
	switch op {
	case opAddPlus:
		return addSat(a, b)
	case opAddMin:
		if a < b {
			return a
		}
		return b
	default: // opAddMax
		if a > b {
			return a
		}
		return b
	}
}

// addApplyRec is the shared recursion of the three commutative binary ADD
// operators, memoized in the binary apply cache alongside And/Or/Xor.
func (m *Manager) addApplyRec(op uint32, f, g Node) Node {
	if f == g && op != opAddPlus {
		return f // min/max are idempotent
	}
	if m.isAddTerm(f) && m.isAddTerm(g) {
		return m.addConst(addApply(op, m.addTermValue(f), m.addTermValue(g)))
	}
	if f > g {
		f, g = g, f // all three operators commute
	}
	if r, ok := m.binLookup(op, f, g); ok {
		return r
	}
	nf, ng := m.nodes[f], m.nodes[g]
	top := nf.level
	if ng.level < top {
		top = ng.level
	}
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	r := m.mk(top, m.addApplyRec(op, f0, g0), m.addApplyRec(op, f1, g1))
	m.binStore(op, f, g, r)
	return r
}

// FromBDD lifts a BDD to an ADD that is w where f holds and 0 elsewhere.
func (m *Manager) FromBDD(f Node, w int64) Node {
	m.safe(f, False, False)
	return m.keep(m.fromBDDRec(f, m.addConst(w)))
}

func (m *Manager) fromBDDRec(f, wterm Node) Node {
	switch f {
	case False:
		return False
	case True:
		return wterm
	}
	if r, ok := m.unLookup(opFromBDD, f, wterm); ok {
		return r
	}
	n := m.nodes[f]
	r := m.mk(n.level, m.fromBDDRec(n.low, wterm), m.fromBDDRec(n.high, wterm))
	m.unStore(opFromBDD, f, wterm, r)
	return r
}

// Threshold returns the BDD of the assignments where the ADD f is at least c
// — the Boolean side of the ADD bridge (FromBDD is the other direction).
// Together with Not it slices an ADD into its cost classes.
func (m *Manager) Threshold(f Node, c int64) Node {
	m.safe(f, False, False)
	return m.keep(m.thresholdRec(f, m.addConst(c), c))
}

func (m *Manager) thresholdRec(f, cterm Node, c int64) Node {
	if m.isAddTerm(f) {
		if m.addTermValue(f) >= c {
			return True
		}
		return False
	}
	if r, ok := m.unLookup(opThreshold, f, cterm); ok {
		return r
	}
	n := m.nodes[f]
	r := m.mk(n.level, m.thresholdRec(n.low, cterm, c), m.thresholdRec(n.high, cterm, c))
	m.unStore(opThreshold, f, cterm, r)
	return r
}

// MinAbstract projects the variables of cube out of the ADD f by taking the
// pointwise minimum over their assignments — the min-analogue of Exists, used
// as the existential cost projection (the cheapest completion of a partial
// assignment). cube must be a positive cube as built by Cube.
func (m *Manager) MinAbstract(f, cube Node) Node {
	m.safe(f, cube, False)
	return m.keep(m.minAbstractRec(f, cube))
}

func (m *Manager) minAbstractRec(f, cube Node) Node {
	for cube != True && !m.isAddTerm(f) && m.nodes[cube].level < m.nodes[f].level {
		cube = m.nodes[cube].high // f does not depend on this cube variable
	}
	if cube == True || m.isAddTerm(f) {
		return f
	}
	if r, ok := m.unLookup(opMinAbstract, f, cube); ok {
		return r
	}
	nf, nc := m.nodes[f], m.nodes[cube]
	var r Node
	if nf.level == nc.level {
		r = m.addApplyRec(opAddMin, m.minAbstractRec(nf.low, nc.high), m.minAbstractRec(nf.high, nc.high))
	} else { // nf.level < nc.level
		r = m.mk(nf.level, m.minAbstractRec(nf.low, cube), m.minAbstractRec(nf.high, cube))
	}
	m.unStore(opMinAbstract, f, cube, r)
	return r
}

// AddEval evaluates the ADD f under the given total assignment (indexed by
// variable id).
func (m *Manager) AddEval(f Node, assignment []bool) int64 {
	m.CheckNode(f)
	for !m.isAddTerm(f) {
		n := m.nodes[f]
		if assignment[m.level2var[n.level]] {
			f = n.high
		} else {
			f = n.low
		}
	}
	return m.addTermValue(f)
}

// AddTerminals returns the distinct terminal values reachable in the ADD f,
// ascending — the cost classes of a weighted function.
func (m *Manager) AddTerminals(f Node) []int64 {
	m.CheckNode(f)
	seen := make(map[Node]bool)
	vals := make(map[int64]bool)
	var rec func(Node)
	rec = func(g Node) {
		if seen[g] {
			return
		}
		seen[g] = true
		if m.isAddTerm(g) {
			vals[m.addTermValue(g)] = true
			return
		}
		n := m.nodes[g]
		rec(n.low)
		rec(n.high)
	}
	rec(f)
	out := make([]int64, 0, len(vals))
	for v := range vals {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddMinValue returns the smallest terminal value reachable in f.
func (m *Manager) AddMinValue(f Node) int64 {
	vs := m.AddTerminals(f)
	return vs[0]
}

// AddMaxValue returns the largest terminal value reachable in f.
func (m *Manager) AddMaxValue(f Node) int64 {
	vs := m.AddTerminals(f)
	return vs[len(vs)-1]
}

// AddSum returns the sum of f's value over all assignments of all variables
// currently allocated in the manager — the weighted model count (for a 0/1
// ADD it equals SatCount). Like SatCount the result is a float64: exact in
// shape for the magnitudes in the paper's tables, not in the last bits.
func (m *Manager) AddSum(f Node) float64 {
	m.CheckNode(f)
	memo := make(map[Node]float64)
	var rec func(Node) float64
	rec = func(g Node) float64 {
		if m.isAddTerm(g) {
			return float64(m.addTermValue(g))
		}
		if c, ok := memo[g]; ok {
			return c
		}
		n := m.nodes[g]
		c := rec(n.low)*math.Pow(2, float64(m.addLevelOrTop(n.low)-n.level-1)) +
			rec(n.high)*math.Pow(2, float64(m.addLevelOrTop(n.high)-n.level-1))
		memo[g] = c
		return c
	}
	return rec(f) * math.Pow(2, float64(m.addLevelOrTop(f)))
}

// addLevelOrTop is levelOrTop with weighted terminals also treated as sitting
// just below the last variable.
func (m *Manager) addLevelOrTop(f Node) int32 {
	if m.isAddTerm(f) {
		return int32(m.numVars)
	}
	return m.nodes[f].level
}
