// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with hash-consing, memoized logical operations, quantification, relational
// products, and variable replacement.
//
// The package is self-contained (standard library only) and serves as the
// symbolic substrate for the lazy-repair synthesis engine: state predicates
// and transition predicates of distributed programs are represented as BDDs,
// exactly as in the BDD-based synthesis tools the paper builds on.
//
// A Manager owns all nodes. Node values are only meaningful relative to the
// Manager that created them. Managers are not safe for concurrent use; create
// one Manager per goroutine for parallel workloads.
package bdd

import (
	"fmt"
	"math"
)

// Node is a reference to a BDD node inside a Manager. The constants False and
// True are the two terminal nodes and are valid in every Manager.
type Node int32

// Terminal nodes. These are the same in every Manager.
const (
	// False is the terminal node for the constant false function.
	False Node = 0
	// True is the terminal node for the constant true function.
	True Node = 1
)

// terminalLevel orders terminals below every variable.
const terminalLevel = math.MaxInt32

// node is the internal storage for one BDD node.
type node struct {
	level     int32 // variable level (position in the global order)
	low, high Node  // cofactors: level=false -> low, level=true -> high
}

// Manager owns a shared, hash-consed node table and the operation caches.
//
// All operations on Nodes must go through the Manager that created them.
type Manager struct {
	nodes []node // index = Node; 0 and 1 are terminals

	// unique is an open-addressed hash table mapping (level,low,high) to the
	// node index, guaranteeing structural sharing (hash-consing). uniqueAt is
	// the live count past which mk acts on it (see uniqueFull in gc.go).
	unique       []Node // 0 means empty slot
	uniqueMask   uint64
	uniqueAt     int64
	crossPending bool // the table crossed its load limit; collect at the next safe point
	skipCross    bool // the last crossing collection freed under a quarter; the next crossing grows

	numVars int

	// Variable order (see order.go). A variable's id is its creation index
	// and never changes; its level is its current position in the order.
	// Node records store levels; the public API speaks ids.
	var2level []int32 // var2level[id] = level
	level2var []int32 // level2var[level] = id

	// Operation caches (direct-mapped, grown with the live node count; see
	// sizeCaches). cacheGrowAt is the live count past which mk doubles them.
	ite         []iteEntry
	bin         []binEntry
	un          []unEntry
	rel         []relEntry
	cacheGrowAt int64
	sat         map[Node]float64
	perm        []permutation

	// cacheEpoch is the generation stamp for all op-cache entries; entries
	// written under an older epoch read as misses. Starts at 1 so that
	// zero-valued entries are invalid.
	cacheEpoch uint32

	// Node lifetime management (see gc.go).
	refs        map[Node]int32   // explicit roots, with counts
	freeHead    Node             // head of the freed-slot reuse list (0 = empty)
	freeCnt     int              // number of slots on the free list
	gcThreshold int64            // allocations between automatic collections (<=0 disables)
	allocSince  int64            // allocations since the last collection
	gcPending   bool             // a collection is due at the next safe point
	nodeBudget  int64            // live-node ceiling (<=0 disables)
	budgetHit   bool             // the budget was exceeded; re-check after collecting
	tmpRoots    [3]Node          // operands of the op currently at its safe point
	recent      [recentRing]Node // ring of recent public-op results (roots)
	recentPos   int
	markBuf     []uint64 // reusable mark bitset
	markStack   []Node   // reusable mark traversal stack
	countMarks  []uint64 // NodeCount's mark bitset, all zero between calls
	countList   []Node   // NodeCount's visit list

	// Dynamic reordering (see order.go).
	reorderThreshold  int64     // allocations between automatic sifting passes (<=0 disables)
	allocSinceReorder int64     // allocations since the last sifting pass
	reorderPending    bool      // a sifting pass is due at the next safe point
	inReorder         bool      // a swap session is active
	rl                [][]Node  // per-level node lists, valid during a session
	depBuf            []swapDep // scratch: level-x nodes depending on level y
	indepBuf          []Node    // scratch: level-x nodes independent of level y
	lastCollectSize   int       // table size after the session's last collect
	swapsThisPass     int       // adjacent swaps consumed by the current pass
	touchedThisPass   int       // level-node touches consumed by the current pass
	passWorkBudget    int       // touch budget of the current pass
	reorderNextSize   int       // table size gate for the next automatic pass
	pc                []int32   // session-local parent counts (live parents only)
	extBits           []uint64  // session-local bitset of externally rooted nodes
	deadCnt           int       // nodes currently dead (unreachable) in the session

	// ADD terminal interning (see add.go). Weighted terminals are node slots
	// at terminalLevel, permanently rooted; these maps translate between
	// values and slots. Nil until the first AddConst.
	addTerm map[int64]Node // value -> terminal slot
	addVal  map[Node]int64 // terminal slot -> value

	// Statistics.
	stats Stats

	varNames []string
}

// Stats reports operation, cache and collector counters for a Manager.
type Stats struct {
	NodesAllocated int64 // total nodes ever created (excluding terminals)
	UniqueHits     int64 // mk() calls answered from the unique table
	CacheHits      int64 // operation cache hits
	CacheMisses    int64 // operation cache misses
	NodesLive      int64 // nodes currently live (terminals included)
	PeakLive       int64 // high-water mark of NodesLive
	GCRuns         int64 // collections performed
	NodesFreed     int64 // nodes reclaimed across all collections
	ReorderRuns    int64 // sifting passes performed
	ReorderSwaps   int64 // adjacent-level swaps across all passes
}

// Cache entries carry the epoch they were written in; an entry whose epoch
// differs from the manager's current one is a miss. FlushCaches bumps the
// epoch, invalidating every cache in O(1) — essential now that cadence,
// budget and explicit collections flush after every sweep. A collection at
// the unique table's load limit instead prunes: it zeroes the epoch of each
// entry that names a freed node (pruneCaches in gc.go).

// iteEntry caches ITE(f,g,h) = res.
type iteEntry struct {
	f, g, h, res Node
	epoch        uint32
}

// binEntry caches op(f,g) = res for the binary apply operations.
type binEntry struct {
	f, g, res Node
	op        uint32
	epoch     uint32
}

// unEntry caches unary-with-parameter operations. param is a node (a cube
// or an ADD terminal) or a plain number (Not's 0, a cofactor level, a
// permutation id); unParamNode in gc.go says which.
type unEntry struct {
	f, param, res Node
	op            uint32
	epoch         uint32
}

// relEntry caches the three-operand products: AndExists, DiffExists,
// RelNext and RelPrev (quant.go) and AndDiff (apply.go), told apart by op.
// AndDiff keeps its third operand in cube.
type relEntry struct {
	f, g, cube, res Node
	op              uint32
	epoch           uint32
}

// permutation is a registered variable-id renaming used by Replace.
type permutation struct {
	mapping []int32 // mapping[id] = new id
}

// op codes for the binary and unary caches.
const (
	opAnd uint32 = iota
	opOr
	opXor
	opNot
	opExists
	opForall
	opReplace
	opDiff // f ∧ ¬g
	opCof0 // cofactor w.r.t. the variable at a level (param = level)
	opCof1
	// ADD operations (see add.go). The binary ops share the bin cache with
	// And/Or/Xor; the unary ops share the un cache, with an interned terminal
	// as the parameter where the operation is parameterized by a weight.
	opAddPlus
	opAddMin
	opAddMax
	opFromBDD     // param = weight terminal
	opThreshold   // param = threshold terminal
	opMinAbstract // param = cube
	// The products of the rel cache (see relOp for the shifted ones, whose
	// key also names the permutation).
	opAndExists
	opDiffExists
	opRelNext
	opRelPrev
	opAndDiff // f ∧ g ∧ ¬h
)

const (
	// The op caches start at cacheMinSlots entries each and double whenever
	// an allocation pushes the live node count past cacheLoad times the slot
	// count, up to cacheMaxSlots — BuDDy's cache ratio and CUDD's cache
	// growth.
	cacheMinSlots = 1 << 14
	cacheMaxSlots = 1 << 20
	cacheLoad     = 8

	// The unique table's load limit, as a fraction of its slots: an
	// allocation past it arms a collection (or grows the table; see
	// uniqueFull). While a collection is armed, mk grows the table by itself
	// past the hard ceiling uniqueCeilNum/uniqueLoadDen, which one long
	// recursion can reach before its safe point.
	uniqueLoadNum = 6
	uniqueCeilNum = 7
	uniqueLoadDen = 8

	// The node table starts with room for initialNodeCap nodes (6 MB) and
	// grows by append. Go zeroes the whole capacity whenever it hands a
	// manager memory a collected one used, so every job pays for what it
	// reserves, not for what it fills; at 2^20 nodes (12 MB) a chain job that
	// fills a tenth of it paid the rest in zeroing and page faults.
	initialNodeCap = 1 << 19
)

// New creates an empty Manager with no variables. Call NewVar (or NewVars) to
// allocate variables; the creation order defines the global variable order.
func New() *Manager {
	m := &Manager{
		nodes: make([]node, 2, initialNodeCap),
		sat:   make(map[Node]float64),
	}
	m.sizeCaches(cacheMinSlots)
	m.cacheEpoch = 1
	m.nodes[False] = node{level: terminalLevel, low: False, high: False}
	m.nodes[True] = node{level: terminalLevel, low: True, high: True}
	// The unique table starts small and grows with the live-node count: a
	// crossing of its load limit in mk collects first and doubles only what
	// the survivors still fill (uniqueFull, collect). It never shrinks.
	m.growUnique(1 << 14)
	m.stats.PeakLive = 2
	m.gcThreshold = defaultGCThreshold
	if s := stressThreshold(); s > 0 {
		m.gcThreshold = s
	}
	if s := reorderStress(); s > 0 {
		m.reorderThreshold = s
	}
	m.reorderNextSize = reorderFirstSize
	return m
}

// sizeCaches allocates op caches of the given number of slots each, moves
// every current-epoch entry of the old ones into them, and sets the live
// count at which mk next doubles them. A doubling sends each old slot to
// one of two new ones, so no kept entry evicts another. Growing inside a
// recursion is safe: no caller holds a cache entry across mk.
func (m *Manager) sizeCaches(slots int) {
	ite, bin, un, rel := m.ite, m.bin, m.un, m.rel
	m.ite = make([]iteEntry, slots)
	m.bin = make([]binEntry, slots)
	m.un = make([]unEntry, slots)
	m.rel = make([]relEntry, slots)
	mask := uint64(slots - 1)
	for _, e := range ite {
		if e.epoch == m.cacheEpoch {
			m.ite[hash3(uint64(e.f), uint64(e.g), uint64(e.h))&mask] = e
		}
	}
	for _, e := range bin {
		if e.epoch == m.cacheEpoch {
			m.bin[hash3(uint64(e.op), uint64(e.f), uint64(e.g))&mask] = e
		}
	}
	for _, e := range un {
		if e.epoch == m.cacheEpoch {
			m.un[hash3(uint64(e.op), uint64(e.f), uint64(e.param))&mask] = e
		}
	}
	for _, e := range rel {
		if e.epoch == m.cacheEpoch {
			m.rel[relHash(e.op, e.f, e.g, e.cube)&mask] = e
		}
	}
	m.cacheGrowAt = math.MaxInt64
	if slots < cacheMaxSlots {
		m.cacheGrowAt = int64(cacheLoad * slots)
	}
}

// CheckNode panics if f cannot be a Node of this manager. Node values are
// plain indices, so a Node from a different (often larger) Manager may be out
// of range here — or, worse, silently alias an unrelated function. Operations
// that walk a caller-supplied DAG outside the apply layer call this to turn
// the cross-manager mistake into an immediate, explainable failure.
func (m *Manager) CheckNode(f Node) {
	if f < 0 || int(f) >= len(m.nodes) {
		panic(fmt.Sprintf("bdd: Node %d is not from this manager (have %d nodes); "+
			"nodes are only meaningful relative to the Manager that created them", f, len(m.nodes)))
	}
	if f > True && m.nodes[f].level == freeLevel {
		panic(fmt.Sprintf("bdd: Node %d was collected; it was not rooted across a GC "+
			"(see Ref/Rooted/Protect in package bdd)", f))
	}
}

// NumVars returns the number of variables allocated in the manager.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the total number of live nodes in the manager, including the
// two terminals. Slots freed by the collector do not count.
func (m *Manager) Size() int { return len(m.nodes) - m.freeCnt }

// Stats returns a snapshot of the manager's operation counters.
func (m *Manager) Stats() Stats {
	s := m.stats
	s.NodesLive = int64(m.Size())
	return s
}

// NewVar allocates a fresh variable at the end of the current order and
// returns the BDD for that variable (the function that is true iff the
// variable is true). The variable's id equals its creation index and is
// stable across reorders. The optional name is used by String and Dot.
func (m *Manager) NewVar(name string) Node {
	m.safe(False, False, False)
	id := int32(m.numVars)
	level := id // a new variable always enters at the bottom of the order
	m.numVars++
	m.var2level = append(m.var2level, level)
	m.level2var = append(m.level2var, id)
	// Cached sat counts are relative to the variable count; invalidate them.
	if len(m.sat) > 0 {
		m.sat = make(map[Node]float64)
	}
	if name == "" {
		name = fmt.Sprintf("x%d", id)
	}
	m.varNames = append(m.varNames, name)
	return m.keep(m.mk(level, False, True))
}

// NewVars allocates n fresh variables with generated names and returns them.
func (m *Manager) NewVars(n int) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = m.NewVar("")
	}
	return out
}

// Var returns the BDD for the variable with the given id (creation index).
// It panics if no such variable has been allocated.
func (m *Manager) Var(v int) Node {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	m.safe(False, False, False)
	return m.keep(m.mkVar(m.var2level[v]))
}

// mkVar is Var without the safe point, for use inside recursions. It takes a
// level, not a variable id.
func (m *Manager) mkVar(level int32) Node {
	return m.mk(level, False, True)
}

// NVar returns the negation of the variable with the given id.
func (m *Manager) NVar(v int) Node {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	m.safe(False, False, False)
	return m.keep(m.mk(m.var2level[v], True, False))
}

// VarName returns the registered name of the variable with the given id.
func (m *Manager) VarName(v int) string { return m.varNames[v] }

// IsTerminal reports whether f is one of the two constant functions.
func (m *Manager) IsTerminal(f Node) bool { return f <= True }

// mk returns the canonical node for (level, low, high), creating it if needed.
func (m *Manager) mk(level int32, low, high Node) Node {
	if low == high {
		return low
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
			return slot
		}
		h = (h + 1) & m.uniqueMask
	}
	var idx Node
	if m.freeHead != 0 {
		// Reuse the lowest free slot (the sweep orders the list ascending),
		// so indices stay dense and deterministic after collections.
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
	m.allocSince++
	if m.gcThreshold > 0 && m.allocSince >= m.gcThreshold {
		m.gcPending = true
	}
	m.allocSinceReorder++
	if m.reorderThreshold > 0 && m.allocSinceReorder >= m.reorderThreshold &&
		len(m.nodes)-m.freeCnt >= m.reorderNextSize {
		m.reorderPending = true
	}
	live := int64(len(m.nodes) - m.freeCnt)
	if live > m.stats.PeakLive {
		m.stats.PeakLive = live
	}
	if m.nodeBudget > 0 && live > m.nodeBudget {
		m.gcPending = true
		m.budgetHit = true
	}
	if live > m.cacheGrowAt {
		m.sizeCaches(2 * len(m.bin))
	}
	if live > m.uniqueAt {
		m.uniqueFull()
	}
	return idx
}

// growUnique rebuilds the unique table with the given capacity (power of 2).
func (m *Manager) growUnique(capacity uint64) {
	m.unique = make([]Node, capacity)
	m.rehashUnique()
}

// rehashUnique hashes every live node into the unique table, which must be
// empty, and sets the load limit past which mk next acts on it.
func (m *Manager) rehashUnique() {
	capacity := uint64(len(m.unique))
	m.uniqueMask = capacity - 1
	m.uniqueAt = int64(capacity * uniqueLoadNum / uniqueLoadDen)
	for i := 2; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.level == freeLevel {
			continue
		}
		h := hash3(uint64(n.level), uint64(n.low), uint64(n.high)) & m.uniqueMask
		for m.unique[h] != 0 {
			h = (h + 1) & m.uniqueMask
		}
		m.unique[h] = Node(i)
	}
}

// FlushCaches drops all memoized operation results — the direct-mapped ITE,
// binary, unary and relational-product caches plus the sat-count memo. Node
// storage is kept. Useful between phases of a long-running synthesis to
// bound cache staleness; every collection but a crossing one also calls it
// after its sweep, because the caches key on raw node indices that may alias
// once slots are reused.
func (m *Manager) FlushCaches() {
	m.cacheEpoch++
	if m.cacheEpoch == 0 {
		// Epoch wrapped (after ~4G flushes): old entries could alias the new
		// generation, so pay for one true clear.
		for i := range m.ite {
			m.ite[i] = iteEntry{}
		}
		for i := range m.bin {
			m.bin[i] = binEntry{}
		}
		for i := range m.un {
			m.un[i] = unEntry{}
		}
		for i := range m.rel {
			m.rel[i] = relEntry{}
		}
		m.cacheEpoch = 1
	}
	m.sat = make(map[Node]float64)
}

// hash3 mixes three words into a table index.
func hash3(a, b, c uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f ^ c*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}
