package bdd

// This file implements node lifetime management: an explicit rooting API
// (Ref/Deref, Rooted handles, Protect scopes), a mark-and-sweep garbage
// collector over the node table, automatic triggering at operation safe
// points, and a node budget that turns unbounded growth into a typed error.
//
// Lifetime contract. A Node stays valid across a collection iff it is
// reachable from a root at collection time. Roots are:
//
//   - explicitly referenced nodes (Ref, Rooted, Protect/Keep/Slot),
//   - the operands of the public operation currently entering its safe point,
//   - the results of the last recentRing public operations (a ring buffer
//     the manager maintains automatically), and
//   - the two terminals.
//
// The ring exists so that short chains of operations — building a cube of
// conjuncts, a nested Or(And(..),And(..)) — need no ceremony: each operand
// was itself a recent result. Anything held across MORE than recentRing
// operation results (struct fields, fixpoint accumulators, slices of
// partition relations) must be rooted explicitly.
//
// Collections only ever run at the entry of a public operation (the safe
// point), never inside a recursion: the public entry points are thin
// wrappers around private recursive bodies, so intermediate nodes living on
// the Go stack during a recursion can never observe a sweep.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
)

// freeLevel marks a node slot on the free list. No real variable can have a
// negative level, so a freed slot is unambiguous; its low field links to the
// next free slot (0 terminates the list, since slot 0 is the False terminal
// and never freed).
const freeLevel int32 = -1

// recentRing is the size of the recent-results root ring (power of two).
const recentRing = 256

// defaultGCThreshold is the allocations-since-last-GC count that arms an
// automatic collection when the manager is created. SetGCThreshold tunes it;
// the REPRO_GC_STRESS environment variable overrides it for every new
// manager (see stressThreshold).
const defaultGCThreshold = 1 << 21

// satMemoLimit bounds the sat-count memo map; satRec resets the map when it
// would grow past this many entries.
const satMemoLimit = 1 << 20

// stressThreshold parses REPRO_GC_STRESS once. Empty/unset disables stress
// mode; a positive integer is used as the GC threshold for every new
// manager; any other non-empty value selects an aggressive default. This is
// the GC-stress mode used by CI: the whole test suite runs with frequent
// collections, so rooting violations surface as test failures.
var stressThreshold = sync.OnceValue(func() int64 {
	v := os.Getenv("REPRO_GC_STRESS")
	if v == "" {
		return 0
	}
	if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
		return n
	}
	return 1 << 12
})

// BudgetError reports that a manager exceeded its node budget even after a
// collection. It is delivered as a panic at the offending operation's safe
// point and converted back to an error at the run boundary (core.Run,
// repro.Repair, Pool.Map), so a runaway synthesis fails cleanly instead of
// exhausting memory.
type BudgetError struct {
	Live   int // live node count after the failed collection
	Budget int // the configured budget
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("bdd: node budget exceeded: %d live nodes > budget %d", e.Live, e.Budget)
}

// Ref roots f: it will survive collections until a matching Deref. Ref
// counts, so independent owners may root the same node. Terminals need no
// rooting; Ref returns f for call-chaining.
func (m *Manager) Ref(f Node) Node {
	if f <= True {
		return f
	}
	m.CheckNode(f)
	if m.refs == nil {
		m.refs = make(map[Node]int32)
	}
	m.refs[f]++
	return f
}

// Deref removes one root from f. It panics if f was not rooted — an
// unbalanced Deref is a lifetime-discipline bug worth failing loudly on.
func (m *Manager) Deref(f Node) {
	if f <= True {
		return
	}
	c, ok := m.refs[f]
	if !ok {
		panic(fmt.Sprintf("bdd: Deref of unreferenced node %d", f))
	}
	if c == 1 {
		delete(m.refs, f)
	} else {
		m.refs[f] = c - 1
	}
}

// Rooted is a re-assignable strong handle: the held node is always rooted.
// It is the natural shape for loop-carried fixpoint accumulators
// (reached/frontier sets, invariant candidates) and long-lived struct
// fields.
type Rooted struct {
	m *Manager
	n Node
}

// NewRooted roots f and wraps it in a handle.
func (m *Manager) NewRooted(f Node) *Rooted {
	m.Ref(f)
	return &Rooted{m: m, n: f}
}

// Node returns the currently held node.
func (r *Rooted) Node() Node { return r.n }

// Set re-points the handle at f, rooting f and un-rooting the previous
// value. Returns f for call-chaining.
func (r *Rooted) Set(f Node) Node {
	r.m.Ref(f)
	r.m.Deref(r.n)
	r.n = f
	return f
}

// Release un-roots the held value. The handle holds False afterwards, so a
// second Release is a no-op.
func (r *Rooted) Release() {
	r.m.Deref(r.n)
	r.n = False
}

// Scope is a bulk-release root set for one phase of work: Keep pins
// individual nodes, Slot creates re-assignable handles, and a single
// (usually deferred) Release drops everything at once.
type Scope struct {
	m     *Manager
	kept  []Node
	slots []*Rooted
}

// Protect opens a rooting scope. Typical use:
//
//	sc := m.Protect()
//	defer sc.Release()
//	acc := sc.Slot(bdd.True)
//	for ... { acc.Set(m.And(acc.Node(), step)) }
func (m *Manager) Protect() *Scope { return &Scope{m: m} }

// Keep roots f for the lifetime of the scope and returns it.
func (s *Scope) Keep(f Node) Node {
	s.m.Ref(f)
	s.kept = append(s.kept, f)
	return f
}

// Slot creates a scope-owned re-assignable root initialized to f.
func (s *Scope) Slot(f Node) *Rooted {
	r := s.m.NewRooted(f)
	s.slots = append(s.slots, r)
	return r
}

// Release un-roots everything the scope holds. Safe to call more than once.
func (s *Scope) Release() {
	for _, f := range s.kept {
		s.m.Deref(f)
	}
	s.kept = s.kept[:0]
	for _, r := range s.slots {
		r.Release()
	}
	s.slots = s.slots[:0]
}

// SetGCThreshold arms automatic collection: once n nodes have been
// allocated since the last collection, the next operation safe point
// collects. n <= 0 disables automatic GC (explicit GC() still works).
func (m *Manager) SetGCThreshold(n int64) {
	m.gcThreshold = n
	if n > 0 && m.allocSince >= n {
		m.gcPending = true
	}
}

// SetNodeBudget bounds the live node count: if an operation pushes the live
// count past n and a collection cannot bring it back under, the operation
// panics with *BudgetError (recovered into an error at the run boundary).
// n <= 0 removes the budget.
func (m *Manager) SetNodeBudget(n int64) {
	m.nodeBudget = n
	if n > 0 && int64(len(m.nodes)-m.freeCnt) > n {
		m.gcPending = true
		m.budgetHit = true
	}
}

// keep records r in the recent-results root ring and returns it. Every
// public operation funnels its result through keep, which is what makes
// short operation chains safe without explicit rooting.
func (m *Manager) keep(r Node) Node {
	m.recent[m.recentPos&(recentRing-1)] = r
	m.recentPos++
	return r
}

// safe is the collection and reordering safe point at the entry of every
// public operation. The operands are temporarily rooted so the operation
// about to run cannot lose them; unused operand positions are passed as
// terminals. A pending sifting pass subsumes a pending collection (it
// collects at both session boundaries). After a budget-triggered collection
// that still leaves the manager over budget, safe panics with *BudgetError.
func (m *Manager) safe(f, g, h Node) {
	if !m.gcPending && !m.reorderPending {
		return
	}
	m.tmpRoots = [3]Node{f, g, h}
	if m.reorderPending {
		m.reorderPending = false
		m.reorderNow()
	} else {
		m.collect()
	}
	m.tmpRoots = [3]Node{False, False, False}
	if m.budgetHit {
		m.budgetHit = false
		if live := len(m.nodes) - m.freeCnt; m.nodeBudget > 0 && int64(live) > m.nodeBudget {
			panic(&BudgetError{Live: live, Budget: int(m.nodeBudget)})
		}
	}
}

// GC forces a mark-and-sweep collection now. Unrooted nodes are freed into
// a reuse list, the unique table is rebuilt over the survivors, and all
// operation caches (and the sat memo) are flushed — they key on raw node
// indices, which may alias new functions once slots are reused.
func (m *Manager) GC() {
	m.collect()
}

// collect is the collector: mark from the root set, sweep dead slots onto
// the free list, rebuild the unique table, flush caches, update counters.
//
// The sweep walks the table from the top down so the free list ends ordered
// by ascending index: allocation after a collection reuses the densest
// (lowest) slots first, keeping node indices — and therefore every
// downstream computation — deterministic for a fixed operation sequence.
func (m *Manager) collect() {
	// Mark phase: bitset over the node table, iterative DAG traversal.
	words := (len(m.nodes) + 63) / 64
	if cap(m.markBuf) < words {
		m.markBuf = make([]uint64, words)
	}
	m.markBuf = m.markBuf[:words]
	for i := range m.markBuf {
		m.markBuf[i] = 0
	}
	m.markBuf[0] = 3 // terminals

	stack := m.markStack[:0]
	push := func(n Node) {
		if n <= True {
			return
		}
		w, b := n>>6, uint(n)&63
		if m.markBuf[w]&(1<<b) == 0 {
			m.markBuf[w] |= 1 << b
			stack = append(stack, n)
		}
	}
	for n := range m.refs {
		push(n)
	}
	for _, n := range m.recent {
		push(n)
	}
	for _, n := range m.tmpRoots {
		push(n)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &m.nodes[n]
		push(nd.low)
		push(nd.high)
	}
	m.markStack = stack[:0]

	// Sweep phase: rebuild the free list top-down (see above), counting only
	// newly freed slots; previously free slots re-enter the list unchanged.
	freed := 0
	m.freeHead = 0
	m.freeCnt = 0
	for i := len(m.nodes) - 1; i >= 2; i-- {
		if m.markBuf[i>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		if m.nodes[i].level != freeLevel {
			freed++
		}
		m.nodes[i] = node{level: freeLevel, low: m.freeHead}
		m.freeHead = Node(i)
		m.freeCnt++
	}

	if freed > 0 {
		// Rebuild the unique table in place over the survivors. (When the
		// sweep freed nothing, every table entry and cache line still refers
		// to a live node, so both rebuild and flush can be skipped — the
		// common case under frequent automatic collections.)
		for i := range m.unique {
			m.unique[i] = 0
		}
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

		// The op caches and sat memo hold raw indices into slots that may now
		// be reused for different functions; flushing them is a soundness
		// requirement, not an optimization.
		m.FlushCaches()
	}

	m.stats.GCRuns++
	m.stats.NodesFreed += int64(freed)
	m.allocSince = 0
	m.gcPending = false
}
