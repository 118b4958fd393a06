package bdd

// This file implements dynamic variable reordering: Rudell-style sifting over
// the live node table, built from in-place swaps of adjacent levels.
//
// Variable identity vs. order position. With reordering, a variable's
// creation-time index (its id) and its current position in the order (its
// level) come apart. Node records store levels — the recursions in apply.go
// and quant.go compare levels, which is what keeps them correct under any
// fixed order — while the public API (Var, Cube, Eval, PickCube, AllSat,
// Support, Permutation) speaks variable ids, which never change. The
// var2level / level2var arrays translate between the two.
//
// The swap is slot-preserving: a node keeps its index and its Boolean
// function across a swap (only its level/low/high fields are rewritten), so
// every Node held by a caller — rooted or merely recent — survives a reorder
// with no forwarding table. This is the invariant that lets reordering slot
// into the existing GC machinery: a reorder is just another event at an
// operation safe point, after which the epoch-stamped caches are flushed in
// O(1) exactly as after a sweep.
//
// Swapping adjacent levels x and y = x+1 relabels the two levels and
// restructures only the level-x nodes that depend on level y:
//
//   - a level-y node keeps its children (they are all deeper than y) and is
//     relabeled to x;
//   - a level-x node independent of y keeps its children and is relabeled
//     to y;
//   - a level-x node f with a level-y child decomposes into the four
//     cofactors f00, f01, f10, f11 and is rewritten in place as
//     (x: (y: f00, f10), (y: f01, f11)) — the same function with the two
//     variables tested in the opposite sequence. The inner (y: …) nodes are
//     hash-consed via swapMk, which may allocate.
//
// Both levels' unique-table entries are removed before any relabeling (the
// two levels trade hash homes wholesale, and a stale entry could alias a
// rewritten triple), and re-inserted as each node receives its final triple.
// Old level-y children that were only reachable through rewritten parents
// become garbage; the collector sweeps them at the session boundaries.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
)

const (
	// reorderGrowthFactor bounds how far a single variable's sift may inflate
	// the node table before the walk in that direction is abandoned.
	reorderGrowthFactor = 1.2
	// reorderMaxSwaps bounds the adjacent swaps of one sifting pass. Far
	// above what the state-bit counts in this repo ever need; a backstop
	// against pathological table shapes, not a tuning knob.
	reorderMaxSwaps = 1 << 20
	// reorderCollectSlack triggers a mid-pass collection once swap garbage
	// has grown the table this many halves past the last collected size.
	reorderCollectSlack = 2 // collect when size > lastCollect * 3/2
	// reorderFirstSize is the table size below which automatic reordering
	// never fires: tables this small reorder in microseconds but also have
	// nothing to give. It seeds the growth gate (see reorderNextSize).
	reorderFirstSize = 4096
	// reorderWorkFactor bounds one sifting pass to this many level-node
	// touches per node of starting table size. A swap costs the combined
	// population of the two levels, so an unbounded pass over a large table
	// with many variables is O(vars * size) — minutes, not milliseconds. The
	// budget spends the pass on the most populated (most valuable) variables
	// first and abandons the tail, keeping pass latency roughly linear in the
	// table size.
	reorderWorkFactor = 32
)

// reorderStress parses REPRO_REORDER_STRESS once. Empty/unset disables
// stress mode; an integer above one is used as the reorder threshold for
// every new manager; any other non-empty value selects an aggressive default
// that forces frequent sifting passes. Mirrors REPRO_GC_STRESS: CI runs the
// determinism gates under it so order-dependence bugs surface as failures.
var reorderStress = sync.OnceValue(func() int64 {
	v := os.Getenv("REPRO_REORDER_STRESS")
	if v == "" {
		return 0
	}
	if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 1 {
		return n
	}
	return 1 << 13
})

// VarOf returns the variable id of f's root. f must not be a terminal.
func (m *Manager) VarOf(f Node) int {
	return int(m.level2var[m.nodes[f].level])
}

// Order returns the current variable order as a fresh slice: Order()[l] is
// the id of the variable at level l.
func (m *Manager) Order() []int {
	out := make([]int, m.numVars)
	for l, v := range m.level2var {
		out[l] = int(v)
	}
	return out
}

// orderIsIdentity reports whether every variable sits at its creation level.
func (m *Manager) orderIsIdentity() bool {
	for l, v := range m.level2var {
		if int(v) != l {
			return false
		}
	}
	return true
}

// SetReorderThreshold arms automatic sifting: once n nodes have been
// allocated since the last reorder — and the table has outgrown the growth
// gate (twice its size after the previous pass) — the next operation safe
// point runs a sifting pass. The gate makes automatic passes logarithmically
// rare in the table size, so even an aggressive threshold spends almost all
// of its time on useful work rather than re-sifting an already-sifted table.
// n <= 0 disables automatic reordering (explicit Reorder() still works).
func (m *Manager) SetReorderThreshold(n int64) {
	m.reorderThreshold = n
	if n > 0 && m.allocSinceReorder >= n && m.Size() >= m.reorderNextSize {
		m.reorderPending = true
	}
}

// Reorder runs one sifting pass now: each variable, from the most populated
// level down, is moved through the order by adjacent swaps and left at the
// best position seen, abandoning a direction once the table grows past the
// growth factor. All Nodes — rooted, recent, or merely held by the caller —
// remain valid and denote the same functions afterwards.
func (m *Manager) Reorder() {
	m.safe(False, False, False)
	m.reorderPending = false
	m.reorderNow()
}

// SetOrder rearranges the variables into the given order (order[level] =
// variable id, a bijection over all allocated variables) via adjacent swaps.
// Workers in a pool use it to re-align with the owning manager's order at
// merge barriers, keeping transfers on the fast structural path.
func (m *Manager) SetOrder(order []int) {
	if len(order) != m.numVars {
		panic(fmt.Sprintf("bdd: SetOrder: order has %d entries, manager has %d variables", len(order), m.numVars))
	}
	target := make([]int32, len(order))
	seen := make([]bool, len(order))
	same := true
	for l, v := range order {
		if v < 0 || v >= m.numVars {
			panic(fmt.Sprintf("bdd: SetOrder: variable %d out of range [0,%d)", v, m.numVars))
		}
		if seen[v] {
			panic(fmt.Sprintf("bdd: SetOrder: variable %d listed twice", v))
		}
		seen[v] = true
		target[l] = int32(v)
		if m.level2var[l] != int32(v) {
			same = false
		}
	}
	if same {
		return
	}
	m.safe(False, False, False)
	m.beginReorder()
	// Selection by bubbling: fix levels top-down; the variable wanted at
	// level l is somewhere below and rises one swap at a time.
	for l := 0; l < m.numVars-1; l++ {
		v := target[l]
		for m.var2level[v] > int32(l) {
			m.swapAdjacent(m.var2level[v] - 1)
		}
	}
	m.endReorder()
}

// reorderNow is the sifting pass body. Caller must be at a safe point with
// operands temp-rooted.
func (m *Manager) reorderNow() {
	if m.numVars < 2 || m.inReorder {
		m.allocSinceReorder = 0
		return
	}
	m.inReorder = true
	defer func() { m.inReorder = false }()
	m.beginReorder()
	m.swapsThisPass = 0
	m.touchedThisPass = 0
	m.passWorkBudget = reorderWorkFactor * m.Size()
	// Sift the most populated levels first: they have the most to give, and
	// the candidate list is fixed up front so the pass is deterministic.
	type cand struct {
		v int32
		n int
	}
	cands := make([]cand, 0, m.numVars)
	for l := 0; l < m.numVars; l++ {
		cands = append(cands, cand{m.level2var[l], len(m.rl[l])})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].v < cands[j].v
	})
	for _, c := range cands {
		if c.n == 0 || m.swapsThisPass >= reorderMaxSwaps || m.touchedThisPass >= m.passWorkBudget {
			break
		}
		m.siftVar(c.v)
		// Swap garbage (orphaned level-y children) accumulates across sifts;
		// collect when it has grown the table materially so the size signal
		// guiding later sifts stays honest.
		if m.Size() > m.lastCollectSize+m.lastCollectSize/reorderCollectSlack {
			m.collect(false)
			m.buildReorderLists()
			m.lastCollectSize = m.Size()
		}
	}
	m.endReorder()
}

// siftVar moves variable v through the whole order by adjacent swaps and
// leaves it at the position with the smallest observed table size. The walk
// in a direction stops early once the table exceeds the growth bound.
func (m *Manager) siftVar(v int32) {
	n := int32(m.numVars)
	start := m.var2level[v]
	size := m.sessionSize()
	best, bestLevel := size, start
	limit := size + int(float64(size)*(reorderGrowthFactor-1))
	record := func() {
		size = m.sessionSize()
		if size < best {
			best, bestLevel = size, m.var2level[v]
		}
	}
	budgetLeft := func() bool {
		return m.swapsThisPass < reorderMaxSwaps && m.touchedThisPass < m.passWorkBudget
	}
	walkUp := func() {
		for m.var2level[v] > 0 && budgetLeft() {
			m.swapAdjacent(m.var2level[v] - 1)
			if record(); size > limit {
				break
			}
		}
	}
	walkDown := func() {
		for m.var2level[v] < n-1 && budgetLeft() {
			m.swapAdjacent(m.var2level[v])
			if record(); size > limit {
				break
			}
		}
	}
	// Try the nearer end first so the cheap direction bounds the expensive
	// one's growth budget.
	if start < n/2 {
		walkUp()
		walkDown()
	} else {
		walkDown()
		walkUp()
	}
	// Return to the best position seen (budget overruns are tolerated here —
	// the variable must land somewhere deliberate).
	for m.var2level[v] > bestLevel {
		m.swapAdjacent(m.var2level[v] - 1)
	}
	for m.var2level[v] < bestLevel {
		m.swapAdjacent(m.var2level[v])
	}
}

// beginReorder opens a swap session: collect so the per-level lists hold
// only live nodes, then index every slot by level.
func (m *Manager) beginReorder() {
	m.collect(false)
	m.buildReorderLists()
	m.lastCollectSize = m.Size()
}

// sessionSize is the live node count during a swap session. Size() counts
// every occupied slot, including nodes orphaned by earlier swaps that only a
// collection can reclaim; subtracting the session's dead count gives the
// honest signal sifting must optimize — otherwise accumulated garbage makes
// every position look worse than the starting one and no sift ever commits.
func (m *Manager) sessionSize() int {
	return m.Size() - m.deadCnt
}

// isExt reports whether n was externally rooted (refs, recent ring, temp
// roots) when the session state was last built. Roots cannot change inside a
// session — no public operation runs — so the frozen bitset stays exact.
func (m *Manager) isExt(n Node) bool {
	w := int(n >> 6)
	return w < len(m.extBits) && m.extBits[w]&(1<<(uint(n)&63)) != 0
}

// pcNew registers a freshly allocated slot with the session's parent counts.
// A new node starts with no parents, i.e. dead; the incEdge from the parent
// that caused its creation immediately revives it (and only then are its own
// outgoing edges counted).
func (m *Manager) pcNew(n Node) {
	for int(n) >= len(m.pc) {
		m.pc = append(m.pc, 0)
	}
	m.pc[n] = 0
	m.deadCnt++
}

// incEdge records a new live parent of n. Edges leaving a dead node are not
// counted, so a node reviving (first live parent) re-counts its outgoing
// edges, cascading down the DAG.
func (m *Manager) incEdge(n Node) {
	if n <= True {
		return
	}
	if m.pc[n] == 0 && !m.isExt(n) {
		m.deadCnt--
		nd := m.nodes[n]
		m.incEdge(nd.low)
		m.incEdge(nd.high)
	}
	m.pc[n]++
}

// decEdge removes one live parent of n; a node whose last live parent goes
// away dies, un-counting its outgoing edges down the DAG.
func (m *Manager) decEdge(n Node) {
	if n <= True {
		return
	}
	m.pc[n]--
	if m.pc[n] == 0 && !m.isExt(n) {
		m.deadCnt++
		nd := m.nodes[n]
		m.decEdge(nd.low)
		m.decEdge(nd.high)
	}
}

// endReorder closes the session: sweep the swap garbage, flush the caches
// (the cofactor-by-level entries key on positions that just moved; everything
// else is invalidated wholesale for the same O(1) epoch bump), and reset the
// trigger counter.
func (m *Manager) endReorder() {
	m.collect(false)
	m.FlushCaches()
	m.allocSinceReorder = 0
	m.reorderPending = false
	m.stats.ReorderRuns++
	// Growth gate: the next automatic pass waits until the table has doubled
	// past what this one left behind. Re-sifting a table that has not grown
	// mostly rediscovers the same order at full pass cost.
	m.reorderNextSize = 2 * m.Size()
	if m.reorderNextSize < reorderFirstSize {
		m.reorderNextSize = reorderFirstSize
	}
}

// buildReorderLists populates the session state: m.rl (rl[l] lists every
// non-free node slot at level l, ascending), the parent counts, the
// external-root bitset, and the dead count. swapAdjacent keeps all of it
// current for the two levels it touches; other levels are untouched by a
// swap. Called right after a collection, so every occupied slot is live and
// the dead count starts at zero.
func (m *Manager) buildReorderLists() {
	if len(m.rl) < m.numVars {
		m.rl = make([][]Node, m.numVars)
	}
	for i := range m.rl {
		m.rl[i] = m.rl[i][:0]
	}
	if cap(m.pc) < len(m.nodes) {
		m.pc = make([]int32, len(m.nodes))
	} else {
		m.pc = m.pc[:len(m.nodes)]
		for i := range m.pc {
			m.pc[i] = 0
		}
	}
	for i := 2; i < len(m.nodes); i++ {
		nd := m.nodes[i]
		if nd.level == freeLevel || nd.level == terminalLevel {
			// Freed slots and ADD terminals carry no level list entry; a
			// terminal's self-loop must not count as a parent either (its
			// permanent ref keeps it alive and externally rooted instead).
			continue
		}
		m.rl[nd.level] = append(m.rl[nd.level], Node(i))
		m.pc[nd.low]++
		m.pc[nd.high]++
	}
	words := (len(m.nodes) + 63) / 64
	if cap(m.extBits) < words {
		m.extBits = make([]uint64, words)
	} else {
		m.extBits = m.extBits[:words]
		for i := range m.extBits {
			m.extBits[i] = 0
		}
	}
	setExt := func(n Node) {
		if n > True {
			m.extBits[n>>6] |= 1 << (uint(n) & 63)
		}
	}
	for n := range m.refs {
		setExt(n)
	}
	for _, n := range m.recent {
		setExt(n)
	}
	for _, n := range m.tmpRoots {
		setExt(n)
	}
	m.deadCnt = 0
}

// swapDep is a level-x node that depends on level y, with its four cofactors
// captured before any relabeling.
type swapDep struct {
	f                  Node
	f00, f01, f10, f11 Node
}

// swapAdjacent exchanges levels x and x+1 in place. See the file comment for
// the three node classes; every node keeps its slot and its function.
func (m *Manager) swapAdjacent(x int32) {
	y := x + 1
	m.stats.ReorderSwaps++
	m.swapsThisPass++
	lx, ly := m.rl[x], m.rl[y]
	m.touchedThisPass += len(lx) + len(ly)
	u, v := m.level2var[x], m.level2var[y]
	m.level2var[x], m.level2var[y] = v, u
	m.var2level[u], m.var2level[v] = y, x
	if len(lx) == 0 && len(ly) == 0 {
		return
	}
	// Classify the level-x nodes before touching anything: the cofactor
	// capture must read the pre-swap structure.
	deps := m.depBuf[:0]
	indep := m.indepBuf[:0]
	for _, f := range lx {
		nf := m.nodes[f]
		dep := false
		d := swapDep{f: f, f00: nf.low, f01: nf.low, f10: nf.high, f11: nf.high}
		if c := m.nodes[nf.low]; c.level == y {
			d.f00, d.f01 = c.low, c.high
			dep = true
		}
		if c := m.nodes[nf.high]; c.level == y {
			d.f10, d.f11 = c.low, c.high
			dep = true
		}
		if dep {
			deps = append(deps, d)
		} else {
			indep = append(indep, f)
		}
	}
	m.depBuf, m.indepBuf = deps, indep
	// Pre-grow the unique table for the worst case (two fresh nodes per
	// dependent); swapMk itself never grows, so the table stays consistent
	// through the surgery below.
	for uint64(m.Size()+2*len(deps)+2)*4 > uint64(len(m.unique))*3 {
		m.growUnique(uint64(len(m.unique)) * 2)
	}
	// Both levels leave the table before any relabeling: entries under the
	// old levels could otherwise alias the rewritten triples.
	for _, f := range lx {
		m.uniqueRemove(f)
	}
	for _, g := range ly {
		m.uniqueRemove(g)
	}
	// Level-y nodes rise to x with their children intact (all deeper than y).
	for _, g := range ly {
		m.nodes[g].level = x
		m.uniqueInsert(g)
	}
	newX := ly
	newY := lx[:0]
	// Independent level-x nodes sink to y with their children intact.
	for _, f := range indep {
		m.nodes[f].level = y
		m.uniqueInsert(f)
		newY = append(newY, f)
	}
	// Dependents are rewritten in place around fresh (or shared) inner nodes.
	// Parent-count bookkeeping: a dead dependent's edges are already
	// uncounted, so only live dependents move counts; incEdge before decEdge
	// avoids a transient death of a node shared between old and new children.
	for i := range deps {
		d := &deps[i]
		fLive := m.pc[d.f] > 0 || m.isExt(d.f)
		c0, c1 := m.nodes[d.f].low, m.nodes[d.f].high
		g0, new0 := m.swapMk(y, d.f00, d.f10)
		if new0 {
			m.pcNew(g0)
			newY = append(newY, g0)
		}
		g1, new1 := m.swapMk(y, d.f01, d.f11)
		if new1 {
			m.pcNew(g1)
			newY = append(newY, g1)
		}
		if fLive {
			m.incEdge(g0)
			m.incEdge(g1)
			m.decEdge(c0)
			m.decEdge(c1)
		}
		m.nodes[d.f] = node{level: x, low: g0, high: g1}
		m.uniqueInsert(d.f)
		newX = append(newX, d.f)
	}
	m.rl[x], m.rl[y] = newX, newY
}

// swapMk is mk for use inside a swap: same hash-consing and slot reuse, but
// it never grows the table (swapAdjacent pre-grows), never arms the GC or
// reorder triggers, and reports whether it allocated.
func (m *Manager) swapMk(level int32, low, high Node) (Node, bool) {
	if low == high {
		return low, false
	}
	h := hash3(uint64(level), uint64(low), uint64(high)) & m.uniqueMask
	for {
		slot := m.unique[h]
		if slot == 0 {
			break
		}
		n := &m.nodes[slot]
		if n.level == level && n.low == low && n.high == high {
			m.stats.UniqueHits++
			return slot, false
		}
		h = (h + 1) & m.uniqueMask
	}
	var idx Node
	if m.freeHead != 0 {
		idx = m.freeHead
		m.freeHead = m.nodes[idx].low
		m.freeCnt--
		m.nodes[idx] = node{level: level, low: low, high: high}
	} else {
		idx = Node(len(m.nodes))
		m.nodes = append(m.nodes, node{level: level, low: low, high: high})
	}
	m.unique[h] = idx
	m.stats.NodesAllocated++
	live := int64(len(m.nodes) - m.freeCnt)
	if live > m.stats.PeakLive {
		m.stats.PeakLive = live
	}
	if m.nodeBudget > 0 && live > m.nodeBudget {
		m.gcPending = true
		m.budgetHit = true
	}
	return idx, true
}

// uniqueInsert hashes an existing node slot into the unique table. The
// caller guarantees the triple is not already present.
func (m *Manager) uniqueInsert(n Node) {
	nd := m.nodes[n]
	h := hash3(uint64(nd.level), uint64(nd.low), uint64(nd.high)) & m.uniqueMask
	for m.unique[h] != 0 {
		h = (h + 1) & m.uniqueMask
	}
	m.unique[h] = n
}

// uniqueRemove deletes n's entry from the open-addressed table using
// backward-shift deletion, which keeps every remaining probe chain intact
// (a plain clear would break chains that probed past the hole).
func (m *Manager) uniqueRemove(n Node) {
	nd := m.nodes[n]
	h := hash3(uint64(nd.level), uint64(nd.low), uint64(nd.high)) & m.uniqueMask
	for m.unique[h] != n {
		if m.unique[h] == 0 {
			panic("bdd: internal: uniqueRemove of a node missing from the unique table")
		}
		h = (h + 1) & m.uniqueMask
	}
	i := h
	for {
		m.unique[i] = 0
		j := i
		for {
			j = (j + 1) & m.uniqueMask
			k := m.unique[j]
			if k == 0 {
				return
			}
			kd := m.nodes[k]
			home := hash3(uint64(kd.level), uint64(kd.low), uint64(kd.high)) & m.uniqueMask
			// k may fill the hole at i unless its home lies cyclically in
			// (i, j] — moving it then would strand it before its home.
			inRange := (j > i && home > i && home <= j) || (j < i && (home > i || home <= j))
			if !inRange {
				m.unique[i] = k
				i = j
				break
			}
		}
	}
}
