package bdd

// This file implements the shared-memory parallel mode: one node table shared
// by all workers, with lock-free CAS insertion into the unique table and
// per-worker (per-view) operation caches, instead of the share-nothing
// Pool/Export/Import migration path.
//
// Structure. A Shared session couples a primary Manager (the owner of the
// node table) with N lightweight views: Manager values whose node-table slice
// headers (nodes, unique table, variable order) are copies of the primary's,
// but whose operation caches, recent-result ring, and root sets are private.
// Because every recursion in apply.go/quant.go reads the table through its
// own Manager receiver, all existing operation code runs unchanged on a view;
// only node creation (mk) takes a different path.
//
// A session alternates between two phases:
//
//   - Parallel region (Begin..End): one goroutine per view runs operations
//     concurrently. New nodes are claimed from per-view allocation chunks
//     (granted in batches from a shared free list and a bump frontier under a
//     mutex) and published by a compare-and-swap into the shared unique
//     table; losers of an equal-key race return their claimed slot to the
//     chunk and adopt the winner's node, so hash-consing stays canonical.
//     The table never grows and no collection or reordering runs inside a
//     region — maintenance is quiesced to the barrier.
//
//   - Barrier (End..Begin): the primary runs alone. End tears the region
//     down (truncates the table to the allocation frontier, rebuilds the
//     lowest-first free list from unconsumed slots) and then runs any
//     deferred maintenance stop-the-world through the ordinary safe-point
//     machinery: mark-and-sweep GC marking from the primary's AND every
//     view's roots, automatic sifting, node-budget enforcement (a blown
//     budget panics *BudgetError exactly as in serial mode). Between regions
//     the primary is a completely ordinary Manager — it may allocate,
//     collect, and reorder freely; the next Begin re-copies the slice
//     headers into the views and flushes their caches if anything
//     invalidating happened.
//
// Memory model. Within a region, a node created by one worker becomes
// visible to another only through the atomic unique-table slot (the CAS
// publish and the atomic probe load form a happens-before edge, which by
// transitivity covers the whole DAG under the published node). Workers never
// write the same node slot: claimed slots are chunk-private until published.
// Everything else a view touches concurrently — the node records, the
// variable-order arrays — is read-only during the region.
//
// Determinism. Node indices in shared mode depend on the goroutine schedule
// (chunk grants interleave), so determinism is NOT index-identity: it is
// function identity. Every operation result is a canonical ROBDD, so the
// merged results on the primary are the same Boolean functions for any
// worker count or schedule, and the canonical Export of any result is
// byte-identical to the serial run's. The engine's differential gates check
// exactly that.

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// sharedChunk is the number of node slots granted to a view's private
	// allocation chunk at a time: large enough that the grant mutex is cold,
	// small enough that N workers stranding a chunk each wastes little.
	sharedChunk = 1024
	// sharedMinCap is the smallest node capacity a region is created with.
	sharedMinCap = 1 << 16
)

// ErrSharedTableFull reports that a parallel region ran out of its pre-sized
// node capacity mid-round. The round's results are garbage (collected at the
// barrier); the caller grows the session (Shared.Bump) and reruns the round,
// which is sound because rounds are pure functions of their rooted inputs.
var ErrSharedTableFull = errors.New("bdd: shared node table full (grow the session and retry the round)")

// sharedFullPanic is the panic sentinel mkShared raises on exhaustion;
// RunSteal converts it to ErrSharedTableFull.
type sharedFullPanic struct{}

// Shared is a shared-memory parallel session over one primary Manager. See
// the file comment for the phase protocol. Create with NewShared, hand each
// worker goroutine its View, and bracket every parallel region with
// Begin/End. The zero value is not usable.
type Shared struct {
	m     *Manager
	views []*Manager

	minCap    int    // capacity floor for the next region (doubled by Bump)
	lastEpoch uint32 // primary cache epoch the views were last synced to
	active    bool

	// Region allocation state, guarded by mu during a region.
	mu       sync.Mutex
	free     []Node // pre-region free slots, ascending
	freePos  int    // next free slot to grant
	frontier int    // next virgin slot to grant
	capNodes int    // fixed node capacity of the region
	granted  int    // slots handed to chunks this region

	// Cumulative fork/join counters across all Shared.Run calls, folded in
	// single-threaded after each run.
	opSpawns int64
	opSteals int64
}

// OpStats returns the cumulative fork/join counters: opTasks spawned by
// forked apply recursions, and how many of them were executed by a worker
// other than the spawner. Must be called outside a parallel region.
func (s *Shared) OpStats() (spawns, steals int64) { return s.opSpawns, s.opSteals }

// Run executes fn once per task index in [0, tasks) across the session's
// worker views inside the current parallel region — RunSteal with
// op-internal fork/join enabled: while fn(w, task) runs a large And/Or/Diff/
// AndExists on view w, the top recursion levels spawn their high branches as
// stealable opTasks, so idle views parallelize a single giant operation
// instead of waiting for the next task. Unlike RunSteal, surplus workers are
// kept (they steal opTasks even when tasks < workers). Must be called
// between Begin and End; exactly one goroutine drives each view.
func (s *Shared) Run(ctx context.Context, tasks int, fn func(worker, task int) error) error {
	if !s.active {
		panic("bdd: Shared.Run outside a parallel region")
	}
	if tasks == 0 {
		return nil
	}
	t := newStealTeam(len(s.views), tasks, s.views, forkLevelFor(s.m.numVars))
	for i, v := range s.views {
		v.team, v.worker = t, i
	}
	err := t.run(ctx, fn)
	for _, v := range s.views {
		v.team, v.worker = nil, 0
	}
	s.opSpawns += atomic.LoadInt64(&t.spawns)
	s.opSteals += atomic.LoadInt64(&t.steals)
	return err
}

// NewShared builds a session with the given number of worker views, each with
// private operation caches of a fixed 2^16 entries. The primary must not be
// mid-operation. The session registers the views with the primary's collector
// and reorderer so nodes rooted in a view survive barrier maintenance; Close
// unregisters them.
func NewShared(m *Manager, workers int) *Shared {
	if workers < 1 {
		panic("bdd: NewShared: need at least one worker view")
	}
	if m.sharedViews != nil {
		panic("bdd: NewShared: manager already owns a shared session")
	}
	s := &Shared{m: m, minCap: sharedMinCap, lastEpoch: m.cacheEpoch}
	for i := 0; i < workers; i++ {
		s.views = append(s.views, newView())
	}
	m.sharedViews = s.views
	return s
}

// newView allocates a Manager shell holding only view-private state: caches,
// sat memo, rings, roots. The table headers are copied in at every Begin.
func newView() *Manager {
	v := &Manager{sat: make(map[Node]float64)}
	v.sizeCaches(viewCacheSlots)
	v.cacheEpoch = 1
	return v
}

// Workers returns the number of worker views.
func (s *Shared) Workers() int { return len(s.views) }

// View returns the i-th worker view. Inside a parallel region exactly one
// goroutine may drive each view; outside a region views must stay idle
// (except for Ref/Deref bookkeeping by the coordinating goroutine).
func (s *Shared) View(i int) *Manager { return s.views[i] }

// Bump doubles the node-capacity floor for the next region. Call after a
// round aborted with ErrSharedTableFull, before rerunning it.
func (s *Shared) Bump() {
	next := 2 * s.capNodes
	if next < 2*s.minCap {
		next = 2 * s.minCap
	}
	s.minCap = next
}

// Close unregisters the views from the primary's maintenance root set. The
// session must not be used afterwards.
func (s *Shared) Close() {
	if s.active {
		panic("bdd: Shared.Close inside a parallel region")
	}
	s.m.sharedViews = nil
	s.views = nil
}

// Begin opens a parallel region: it sizes the table for concurrent
// allocation (node capacity at least twice the live count, unique table at
// least twice the node capacity so probe chains always terminate), converts
// the primary's free list into grantable form, copies the table headers into
// every view, and flushes view caches if the primary collected or reordered
// since the previous region. After Begin returns, the views may run
// concurrently and the primary must stay idle until End.
func (s *Shared) Begin() {
	if s.active {
		panic("bdd: Shared.Begin inside an active region")
	}
	m := s.m
	s.active = true

	// View caches key on raw node indices; any primary flush (collection
	// that freed, sifting pass, explicit FlushCaches) since the last region
	// means those indices may have been rebound.
	if s.lastEpoch != m.cacheEpoch {
		for _, v := range s.views {
			v.FlushCaches()
		}
		s.lastEpoch = m.cacheEpoch
	}

	// Capacity covers twice the live count, but never shrinks below the
	// current table length: free slots between live ones are granted through
	// s.free, and End's truncation to the frontier must not cut live slots.
	live := m.Size()
	c := s.minCap
	for c < 2*live || c < len(m.nodes) {
		c *= 2
	}
	s.capNodes = c
	if uint64(2*c) > uint64(len(m.unique)) {
		m.growUnique(nextPow2(uint64(2 * c)))
	}

	// Free slots become a grantable array; the chain is ascending already
	// (the sweep builds it lowest-first).
	s.free = s.free[:0]
	for idx := m.freeHead; idx != 0; idx = m.nodes[idx].low {
		s.free = append(s.free, idx)
	}
	s.freePos = 0
	s.granted = 0
	m.freeHead = 0
	m.freeCnt = 0

	// Extend node storage to the region capacity, marking every not-yet-real
	// slot as free so a stray access fails loudly instead of aliasing.
	s.frontier = len(m.nodes)
	if cap(m.nodes) < c {
		nn := make([]node, c)
		copy(nn, m.nodes)
		for i := s.frontier; i < c; i++ {
			nn[i] = node{level: freeLevel}
		}
		m.nodes = nn
	} else {
		m.nodes = m.nodes[:c]
		for i := s.frontier; i < c; i++ {
			m.nodes[i] = node{level: freeLevel}
		}
	}

	for _, v := range s.views {
		if v.numVars != m.numVars && len(v.sat) > 0 {
			v.sat = make(map[Node]float64) // sat counts are relative to numVars
		}
		v.nodes = m.nodes
		v.unique = m.unique
		v.uniqueMask = m.uniqueMask
		v.numVars = m.numVars
		v.var2level = m.var2level
		v.level2var = m.level2var
		v.varNames = m.varNames
		v.chunk = v.chunk[:0]
		v.shared = s
	}
}

// End closes the region at a barrier: it reclaims unconsumed chunk slots,
// truncates the table to the allocation frontier, rebuilds the lowest-first
// free list, folds the region's allocation count into the primary's GC and
// reorder triggers, and then runs any deferred maintenance stop-the-world
// via the primary's ordinary safe point — which is where a blown node budget
// panics *BudgetError, exactly as in serial mode. All worker goroutines must
// have finished before End is called.
func (s *Shared) End() {
	if !s.active {
		panic("bdd: Shared.End without an active region")
	}
	m := s.m
	s.active = false

	// Unconsumed chunk slots (and never-granted free slots) form the new
	// free list. Leftovers may hold garbage from lost CAS races; mark them.
	rem := append([]Node(nil), s.free[s.freePos:]...)
	leftover := 0
	for _, v := range s.views {
		v.shared = nil
		rem = append(rem, v.chunk...)
		leftover += len(v.chunk)
		v.chunk = v.chunk[:0]
	}
	sort.Slice(rem, func(i, j int) bool { return rem[i] < rem[j] })

	m.nodes = m.nodes[:s.frontier]
	m.freeHead = 0
	m.freeCnt = 0
	for i := len(rem) - 1; i >= 0; i-- {
		idx := rem[i]
		m.nodes[idx] = node{level: freeLevel, low: m.freeHead}
		m.freeHead = idx
		m.freeCnt++
	}

	consumed := int64(s.granted - leftover)
	m.stats.NodesAllocated += consumed
	m.allocSince += consumed
	m.allocSinceReorder += consumed
	live := int64(m.Size())
	if live > m.stats.PeakLive {
		m.stats.PeakLive = live
	}
	if m.gcThreshold > 0 && m.allocSince >= m.gcThreshold {
		m.gcPending = true
	}
	if m.reorderThreshold > 0 && m.allocSinceReorder >= m.reorderThreshold &&
		int(live) >= m.reorderNextSize {
		m.reorderPending = true
	}
	if m.nodeBudget > 0 && live > m.nodeBudget {
		m.gcPending = true
		m.budgetHit = true
	}
	s.free = s.free[:0]
	s.freePos = 0
	s.granted = 0

	// Stop-the-world barrier maintenance: collection and/or sifting marking
	// from the primary's and every view's roots, budget enforcement after.
	m.safe(False, False, False)
}

// grant refills a view's allocation chunk from the shared free list (lowest
// slots first, keeping the table dense) and then the bump frontier. An empty
// chunk after grant means the region is out of capacity.
func (s *Shared) grant(v *Manager) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := sharedChunk
	for n > 0 && s.freePos < len(s.free) {
		v.chunk = append(v.chunk, s.free[s.freePos])
		s.freePos++
		s.granted++
		n--
	}
	for n > 0 && s.frontier < s.capNodes {
		v.chunk = append(v.chunk, Node(s.frontier))
		s.frontier++
		s.granted++
		n--
	}
}

// sharedClaim pops a private slot from the view's chunk, refilling it from
// the session when empty. Exhaustion aborts the round via the table-full
// sentinel.
func (m *Manager) sharedClaim() Node {
	if len(m.chunk) == 0 {
		m.shared.grant(m)
		if len(m.chunk) == 0 {
			panic(sharedFullPanic{})
		}
	}
	idx := m.chunk[len(m.chunk)-1]
	m.chunk = m.chunk[:len(m.chunk)-1]
	return idx
}

// mkShared is mk inside a parallel region: lock-free CAS insertion into the
// shared unique table. The caller (mk) has already handled low == high.
//
// The probe loads each bucket atomically. An empty bucket is claimed by
// writing the node record into a chunk-private slot first and then
// publishing the slot index with a CAS; on a lost race the same bucket is
// re-examined — if the winner inserted the same triple we adopt its node and
// return our claimed slot to the chunk, otherwise the probe continues. The
// table is pre-sized to at most 50% load, so probes always terminate.
func (m *Manager) mkShared(level int32, low, high Node) Node {
	s := m.shared
	h := hash3(uint64(level), uint64(low), uint64(high)) & m.uniqueMask
	claimed := Node(0)
	for {
		slot := loadNode(&m.unique[h])
		if slot == 0 {
			if claimed == 0 {
				claimed = m.sharedClaim()
				s.m.nodes[claimed] = node{level: level, low: low, high: high}
			}
			if casNode(&m.unique[h], 0, claimed) {
				m.stats.NodesAllocated++
				return claimed
			}
			continue // lost the publish race; re-examine this bucket
		}
		n := &s.m.nodes[slot]
		if n.level == level && n.low == low && n.high == high {
			if claimed != 0 {
				m.chunk = append(m.chunk, claimed)
			}
			m.stats.UniqueHits++
			return slot
		}
		h = (h + 1) & m.uniqueMask
	}
}

// loadNode atomically loads a unique-table bucket. Node is a defined int32,
// so the pointer is reinterpreted for sync/atomic.
func loadNode(p *Node) Node {
	return Node(atomic.LoadInt32((*int32)(unsafe.Pointer(p))))
}

// casNode atomically publishes a unique-table bucket.
func casNode(p *Node, old, new Node) bool {
	return atomic.CompareAndSwapInt32((*int32)(unsafe.Pointer(p)), int32(old), int32(new))
}

// nextPow2 rounds up to a power of two.
func nextPow2(n uint64) uint64 {
	c := uint64(1)
	for c < n {
		c *= 2
	}
	return c
}
