package program

// This file is the single reachability-fixpoint implementation shared by the
// serial and the partitioned engine — the frontier-chained scheduler (see
// DESIGN.md §19).
//
// Algorithm. Every partition i carries a snapshot seen[i] ⊆ reached of the
// states its image has already been applied to. Its frontier is
// reached ∖ seen[i]; imaging only the frontier is sound because images
// distribute over union: Image(reached) = Image(seen[i]) ∪ Image(frontier),
// and the invariant Image(seen[i]) ⊆ reached holds from the moment seen[i]
// is advanced. A partition with an empty frontier is saturated and costs
// nothing until other partitions add states — the saturation firing policy.
// When every frontier is empty, reached = seen[i] for all i, so
// Image_i(reached) ⊆ reached for every partition: reached is the (unique)
// least fixpoint, independent of visit order — chaotic iteration of monotone
// operators on a finite lattice.
//
// Serial: one block holding all partitions, chained to convergence
// (chainBlock). Parallel: rounds across workers, chaining within — the
// pending partitions (non-empty frontier) are dealt contiguously into one
// block per worker; each worker runs the block-local chained fixpoint from
// local = reached, returns its delta L_b ∖ reached; the owner merges deltas
// in block order (canonical BDDs make the merged set schedule-independent)
// and advances seen[i] := reached ∪ delta_b for i in block b — sound because
// the block converged locally: Image_i(reached ∪ delta_b) ⊆ reached ∪
// delta_b ⊆ reached'. On a process chain, contiguous blocks keep consecutive
// processes together, so depth is covered by in-block chaining at the cost
// of O(workers) rounds instead of O(diameter).

import (
	"context"
	"runtime"

	"repro/internal/bdd"
	"repro/internal/symbolic"
)

// FixpointStats counts the work of the unified reachability scheduler across
// an engine's lifetime. The counters are observability (RunReport fix_*
// fields, /metrics.json); they are normalized away from reports like the
// other engine counters. All of them are deterministic for a fixed worker
// count.
type FixpointStats struct {
	// Rounds is the number of scheduler rounds: 1 per serial fixpoint,
	// one per cross-worker barrier in parallel mode.
	Rounds int64
	// Images is the number of image/preimage applications (frontier images
	// only — saturated partitions fire none).
	Images int64
	// PeakFrontier is the largest frontier BDD (in nodes) handed to an
	// image; FinalFrontier is the size of the last non-empty frontier before
	// convergence.
	PeakFrontier  int64
	FinalFrontier int64
	// OpSpawns is always 0; it remains for bench/trace.go.
	OpSpawns int64
	// OpSteals is always 0; it remains for bench/trace.go.
	OpSteals int64
}

// FixpointStats returns the scheduler's cumulative work counters.
func (e *Engine) FixpointStats() FixpointStats { return e.fix }

// chainStats accumulates one block's scheduler work; merged into Engine.fix
// in deterministic block order.
type chainStats struct {
	images int64
	peak   int64
	final  int64
}

// fanoutMinFrontier is the default cost-aware fan-out threshold: a parallel
// round whose pending frontiers total fewer BDD nodes than this runs as a
// single owner-side block instead of fanning out (see Engine.fixpoint).
const fanoutMinFrontier = 8192

// fanoutThreshold returns the engine's fan-out threshold (tests lower it to
// force tiny models through the parallel paths).
func (e *Engine) fanoutThreshold() int {
	if e.fanoutMin > 0 {
		return e.fanoutMin
	}
	return fanoutMinFrontier
}

// image applies one frontier image (or preimage) through a partition.
func image(sp *symbolic.Space, front, part bdd.Node, backward bool) bdd.Node {
	if backward {
		return sp.Preimage(front, part)
	}
	return sp.Image(front, part)
}

// chainBlock advances one block of partitions to its block-local fixpoint:
// starting from the rooted running set local and the given per-partition
// initial frontiers (fronts[k] = local ∖ seen_global[parts[k]]), it chains
// frontier images into local until no partition in the block can add states.
// All nodes are relative to sp's manager; local is updated in place.
func chainBlock(ctx context.Context, sp *symbolic.Space, local *bdd.Rooted,
	parts, fronts []bdd.Node, backward bool, st *chainStats) error {
	m := sp.M
	sc := m.Protect()
	defer sc.Release()
	for _, p := range parts {
		sc.Keep(p)
	}
	// Block-local seen snapshots: everything except the handed-in frontier
	// has already been imaged (by this block in an earlier round, or it was
	// merged from another block and granted to this one's frontier).
	seen := make([]*bdd.Rooted, len(parts))
	for k := range parts {
		sc.Keep(fronts[k])
		seen[k] = sc.Slot(m.Diff(local.Node(), fronts[k]))
	}
	for {
		progress := false
		for k, p := range parts {
			if p == bdd.False {
				continue
			}
			for {
				if err := ctx.Err(); err != nil {
					return err
				}
				front := m.Diff(local.Node(), seen[k].Node())
				if front == bdd.False {
					break // saturated until another partition adds states
				}
				n := int64(m.NodeCount(front))
				if n > st.peak {
					st.peak = n
				}
				st.final = n
				seen[k].Set(local.Node())
				img := image(sp, front, p, backward)
				st.images++
				// Canonicity makes the equality a subset test: img ⊆ local.
				next := m.Or(local.Node(), img)
				if next == local.Node() {
					break
				}
				local.Set(next)
				progress = true
			}
		}
		if !progress {
			return nil
		}
	}
}

// fixpoint is the frontier-chained reachability scheduler — the one fixpoint
// loop behind ReachableParts and BackwardReachableParts on every engine
// configuration. init is conjoined with ValidCur; the result is the least
// fixpoint of the partitioned (pre)image closure.
func (e *Engine) fixpoint(ctx context.Context, init bdd.Node, parts []bdd.Node, backward bool) (bdd.Node, error) {
	m := e.C.Space.M
	sc := m.Protect()
	defer sc.Release()
	for _, p := range parts {
		sc.Keep(p)
	}
	reached := sc.Slot(m.And(init, e.C.Space.ValidCur()))

	if e.Workers() <= 1 {
		// Serial: one block, all partitions, full initial frontiers.
		fronts := make([]bdd.Node, len(parts))
		for k := range fronts {
			fronts[k] = reached.Node()
		}
		var st chainStats
		err := chainBlock(ctx, e.C.Space, reached, parts, fronts, backward, &st)
		e.fix.Rounds++
		e.foldChainStats(st)
		return reached.Node(), err // sound but incomplete on cancellation
	}

	// Parallel: rounds across workers, chained blocks within.
	pc := e.newPoolFixCache()
	defer pc.release(e)
	seen := make([]*bdd.Rooted, len(parts))
	for i := range parts {
		seen[i] = sc.Slot(bdd.False)
	}
	for {
		if err := ctx.Err(); err != nil {
			return bdd.False, err
		}
		rsc := m.Protect()
		// Pending scan: partitions whose frontier is non-empty. Saturated
		// partitions are skipped entirely this round.
		var pidx []int
		var pfronts []bdd.Node
		work := 0
		for i, p := range parts {
			if p == bdd.False {
				continue
			}
			front := m.Diff(reached.Node(), seen[i].Node())
			if front == bdd.False {
				continue
			}
			pidx = append(pidx, i)
			pfronts = append(pfronts, rsc.Keep(front))
			work += m.NodeCount(front)
		}
		if len(pidx) == 0 {
			rsc.Release()
			return reached.Node(), nil
		}
		e.fix.Rounds++
		// Cost-aware fan-out: splitting the pending partitions across blocks
		// duplicates frontier growth (each block's seen snapshots lag the
		// others by a round), which only pays off when the round carries real
		// work. Rounds below the threshold — the long sequential tail of
		// chain-structured models — run as one owner-side block instead,
		// which also keeps them on the owner's growing operation cache.
		if len(pidx) < 2 || work < e.fanoutThreshold() {
			bparts := make([]bdd.Node, len(pidx))
			for k, i := range pidx {
				bparts[k] = parts[i]
			}
			var st chainStats
			err := chainBlock(ctx, e.C.Space, reached, bparts, pfronts, backward, &st)
			e.foldChainStats(st)
			if err != nil {
				rsc.Release()
				return reached.Node(), err
			}
			// The owner block converged on every pending partition; their
			// snapshots advance to the new reached set.
			for _, i := range pidx {
				seen[i].Set(reached.Node())
			}
			rsc.Release()
			continue
		}
		// Block count: one per worker, but never wider than the machine —
		// splitting past the physical core count duplicates frontier growth
		// with nothing to run it on. Floor 2 keeps the parallel machinery
		// (transfer, merges) exercised whenever workers > 1; the result is
		// the same least fixpoint at any width.
		nb := e.Workers()
		if g := runtime.GOMAXPROCS(0); g < nb {
			nb = g
			if nb < 2 {
				nb = 2
			}
		}
		if len(pidx) < nb {
			nb = len(pidx)
		}
		// Contiguous blocks preserve partition order: on chain-structured
		// models consecutive processes stay in one block, so the in-block
		// chain covers depth without cross-worker rounds.
		blocks := make([][2]int, nb)
		for b := 0; b < nb; b++ {
			blocks[b] = [2]int{b * len(pidx) / nb, (b + 1) * len(pidx) / nb}
		}
		stats := make([]chainStats, nb)
		deltas, err := e.runBlocksPool(ctx, reached.Node(), parts, pidx, pfronts, blocks, backward, stats, pc)
		if err != nil {
			rsc.Release()
			return bdd.False, err
		}
		// Merge the per-block deltas in block order (canonical ROBDDs make
		// the merged set identical for any schedule and worker count), then
		// advance the seen snapshots: block b converged locally on
		// base ∪ delta_b, so exactly that set is imaged for its partitions.
		for _, d := range deltas {
			rsc.Keep(d)
		}
		base := rsc.Keep(reached.Node())
		for b, d := range deltas {
			e.foldChainStats(stats[b])
			if d != bdd.False {
				reached.Set(m.Or(reached.Node(), d))
			}
			lb := rsc.Keep(m.Or(base, d))
			for k := blocks[b][0]; k < blocks[b][1]; k++ {
				seen[pidx[k]].Set(lb)
			}
		}
		rsc.Release()
	}
}

// foldChainStats merges one block's counters into the engine totals.
func (e *Engine) foldChainStats(st chainStats) {
	e.fix.Images += st.images
	if st.peak > e.fix.PeakFrontier {
		e.fix.PeakFrontier = st.peak
	}
	if st.final > 0 {
		e.fix.FinalFrontier = st.final
	}
}

// poolFixCache holds the partitioned engine's per-fixpoint transfer caches:
// partition predicates are static, so each worker imports a partition at
// most once per fixpoint (rooted in its manager until release).
type poolFixCache struct {
	partBufs map[int][]byte
	wParts   []map[int]bdd.Node
}

func (e *Engine) newPoolFixCache() *poolFixCache {
	pc := &poolFixCache{partBufs: make(map[int][]byte)}
	pc.wParts = make([]map[int]bdd.Node, len(e.workers))
	for i := range pc.wParts {
		pc.wParts[i] = make(map[int]bdd.Node)
	}
	return pc
}

func (pc *poolFixCache) release(e *Engine) {
	for w, imports := range pc.wParts {
		wm := e.workers[w].Space.M
		for _, n := range imports {
			wm.Deref(n)
		}
	}
}

// runBlocksPool runs one scheduler round's blocks across the pool: the
// reached set and the block frontiers are exported per round, partitions at
// most once per fixpoint (pc), each worker chains its blocks privately from
// local = reached, and the owner imports the canonical delta buffers in
// block order.
func (e *Engine) runBlocksPool(ctx context.Context, reached bdd.Node, parts []bdd.Node,
	pidx []int, pfronts []bdd.Node, blocks [][2]int, backward bool, stats []chainStats,
	pc *poolFixCache) ([]bdd.Node, error) {
	m := e.C.Space.M
	// Owner-side merges between rounds can trigger an owner reorder;
	// re-align the idle workers before each fan-out. (A reorder invalidates
	// nothing in pc: transfer buffers carry their own order, and worker-side
	// imports are nodes, which survive their manager's reordering.)
	e.syncOrders()
	setBuf := m.Export(reached)
	frontBufs := make([][]byte, len(pfronts))
	for k, f := range pfronts {
		frontBufs[k] = m.Export(f)
	}
	for _, k := range pidx {
		if _, ok := pc.partBufs[k]; !ok {
			pc.partBufs[k] = m.Export(parts[k])
		}
	}
	// The reached-set import is shared by every block a worker runs this
	// round; rooted until the pool drains.
	wSet := make([]bdd.Node, len(e.workers))
	wHaveS := make([]bool, len(e.workers))
	bufs, err := e.pool.Map(ctx, len(blocks), func(w *bdd.Manager, worker, b int) ([]byte, error) {
		wc := e.workers[worker]
		if !wHaveS[worker] {
			wSet[worker] = w.Ref(bdd.Import(w, setBuf))
			wHaveS[worker] = true
		}
		stats[b] = chainStats{}
		wsc := w.Protect()
		defer wsc.Release()
		lo, hi := blocks[b][0], blocks[b][1]
		bparts := make([]bdd.Node, hi-lo)
		bfronts := make([]bdd.Node, hi-lo)
		for k := lo; k < hi; k++ {
			i := pidx[k]
			if _, ok := pc.wParts[worker][i]; !ok {
				pc.wParts[worker][i] = w.Ref(bdd.Import(w, pc.partBufs[i]))
			}
			bparts[k-lo] = pc.wParts[worker][i]
			bfronts[k-lo] = wsc.Keep(bdd.Import(w, frontBufs[k]))
		}
		local := wsc.Slot(wSet[worker])
		if err := chainBlock(ctx, wc.Space, local, bparts, bfronts, backward, &stats[b]); err != nil {
			return nil, err
		}
		return w.Export(w.Diff(local.Node(), wSet[worker])), nil
	})
	for i, have := range wHaveS {
		if have {
			e.workers[i].Space.M.Deref(wSet[i])
		}
	}
	if err != nil {
		return nil, err
	}
	// Later imports can trigger owner-side collections; root as we go.
	sc := m.Protect()
	defer sc.Release()
	out := make([]bdd.Node, len(bufs))
	for i, b := range bufs {
		out[i] = sc.Keep(bdd.Import(m, b))
	}
	return out, nil
}

// CyclicCore returns the greatest fixpoint of states in region with a
// partition-edge successor staying in the set: the states from which an
// infinite path inside region exists. It is the one GFP loop shared by the
// repair algorithms' cycle analysis and the verifier's livelock check.
//
// The fixpoint runs on the union of the partitions restricted to
// region × region, computed once up front: the greatest fixpoint peels the
// set one layer per iteration (a chain of n cells takes ~n iterations), so a
// single static relation whose relational-product subresults stay cached
// across iterations beats re-scanning every partition per iteration.
func CyclicCore(c *Compiled, parts []bdd.Node, region bdd.Node) bdd.Node {
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(region)
	for _, p := range parts {
		sc.Keep(p)
	}
	rel := sc.Slot(bdd.False)
	inside := sc.Keep(m.And(region, s.Prime(region)))
	for _, p := range parts {
		rel.Set(m.Or(rel.Node(), m.And(p, inside)))
	}
	z := sc.Slot(region)
	for {
		next := m.And(z.Node(), m.AndExists(rel.Node(), s.Prime(z.Node()), s.NextCube()))
		if next == z.Node() {
			return z.Node()
		}
		z.Set(next)
	}
}
