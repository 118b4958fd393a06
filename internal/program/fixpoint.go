package program

// This file is the reachability fixpoint behind ReachableParts and
// BackwardReachableParts, and the greatest fixpoint behind CyclicCore (see
// DESIGN.md §19). Both run on the owner manager for any worker count: the
// engine fans out only per-process closures (engine.go).
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

import (
	"context"

	"repro/internal/bdd"
	"repro/internal/symbolic"
)

// FixpointStats counts the work of the reachability fixpoints across an
// engine's lifetime. The counters are observability (RunReport fix_*
// fields, /metrics.json); they are normalized away from reports like the
// other engine counters. All of them are deterministic.
type FixpointStats struct {
	// Rounds is the number of reachability fixpoints run: one per call.
	Rounds int64
	// Images is the number of image/preimage applications (frontier images
	// only — saturated partitions fire none).
	Images int64
	// OpSpawns is always 0; it remains for bench/trace.go.
	OpSpawns int64
	// OpSteals is always 0; it remains for bench/trace.go.
	OpSteals int64
}

// FixpointStats returns the fixpoints' cumulative work counters.
func (e *Engine) FixpointStats() FixpointStats { return e.fix }

// image applies one frontier image (or preimage) through a partition.
func image(sp *symbolic.Space, front, part bdd.Node, backward bool) bdd.Node {
	if backward {
		return sp.Preimage(front, part)
	}
	return sp.Image(front, part)
}

// chainBlock advances the rooted running set local to the least fixpoint of
// the partitions' (pre)images: it chains frontier images into local until
// no partition can add states, counting its work into st. All nodes are
// relative to sp's manager; local is updated in place.
//
// Preimage sweeps fire the partitions in reverse order. Partitions come in
// process order, and on a process chain a path moves with that order, so a
// preimage sweep, which walks paths from their end, meets the processes in
// reverse: in list order each backward sweep gains one more process of the
// chain, in reverse order one sweep covers it. The least fixpoint does not
// depend on the order, so the result is the same set either way.
func chainBlock(ctx context.Context, sp *symbolic.Space, local *bdd.Rooted,
	parts []bdd.Node, backward bool, st *FixpointStats) error {
	m := sp.M
	sc := m.Protect()
	defer sc.Release()
	// Nothing has been imaged yet: every frontier starts as all of local.
	seen := make([]*bdd.Rooted, len(parts))
	for k := range parts {
		seen[k] = sc.Slot(bdd.False)
	}
	for {
		progress := false
		for i := range parts {
			k := i
			if backward {
				k = len(parts) - 1 - i
			}
			p := parts[k]
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
				seen[k].Set(local.Node())
				img := image(sp, front, p, backward)
				st.Images++
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

// fixpoint is the one reachability loop behind ReachableParts and
// BackwardReachableParts. init is conjoined with ValidCur; the result is the
// least fixpoint of the partitioned (pre)image closure, computed on the
// owner. On cancellation it is sound but incomplete.
func (e *Engine) fixpoint(ctx context.Context, init bdd.Node, parts []bdd.Node, backward bool) (bdd.Node, error) {
	m := e.C.Space.M
	sc := m.Protect()
	defer sc.Release()
	for _, p := range parts {
		sc.Keep(p)
	}
	reached := sc.Slot(m.And(init, e.C.Space.ValidCur()))
	err := chainBlock(ctx, e.C.Space, reached, parts, backward, &e.fix)
	e.fix.Rounds++
	return reached.Node(), err
}

// CyclicCore returns the greatest fixpoint of states in region with a
// partition-edge successor staying in the set: the states from which an
// infinite path inside region exists. It is the one GFP loop shared by the
// repair algorithms' cycle analysis and the verifier's livelock check.
//
// Before peeling, it tries to prove the core empty compositionally (see
// certifyAcyclic): when parts are per-process, write-legal relations of a
// program whose write→read dependency graph is acyclic, and no process's
// projection onto its readable variables has a cycle inside region, no
// infinite path exists and the answer is False without a global fixpoint.
// When the certificate does not apply, the peel decides.
func CyclicCore(c *Compiled, parts []bdd.Node, region bdd.Node) bdd.Node {
	if certifyAcyclic(c, parts, region) == certProved {
		return bdd.False
	}
	return cyclicCorePeel(c, parts, region)
}

// certVerdict is the outcome of CyclicCore's acyclicity certificate: either
// proved, or the first condition that failed.
type certVerdict int

const (
	// certProved: no infinite path inside region; the core is empty.
	certProved certVerdict = iota
	// certCyclicGraph: the dependency graph has a cycle, or parts is not
	// one relation per process.
	certCyclicGraph
	// certWriteIllegal: some parts[j] leaves process j's write set.
	certWriteIllegal
	// certCyclicProjection: some process's projected relation has a cycle.
	certCyclicProjection
)

// certifyAcyclic tries to prove that the union of parts has no infinite path
// inside region. It needs three conditions:
//
//   - the processes' write→read dependency graph is acyclic
//     (Compiled.depAcyclic) and parts[j] belongs to process j;
//   - every parts[j] ⊆ Procs[j].WriteOK;
//   - for every process j, the projection ∃unread_j.(parts[j] ∧ region ∧
//     region′) onto j's readable variables has an empty greatest fixpoint
//     of states with a successor: no cycle.
//
// Soundness. Suppose an infinite path inside region exists. Attribute each
// step to a part containing it, and let j be a process that moves infinitely
// often and is minimal in the dependency order among such processes. After
// a finite prefix, every process that writes a variable j reads has stopped
// moving, except j itself: a write-legal step of process i changes only W_i,
// and i → j is an edge whenever W_i meets R_j. So from then on j's readable
// valuation changes only on j's own steps, and each j-step starts where the
// previous one ended, projected. The projected j-steps form an infinite path
// in a finite graph, which must contain a cycle — contradicting the third
// condition.
//
// The structural condition costs no BDD work, so programs with a cyclic
// dependency graph (every process of Byzantine agreement reads every
// decision) go straight to the peel.
func certifyAcyclic(c *Compiled, parts []bdd.Node, region bdd.Node) certVerdict {
	if !c.depAcyclic || len(parts) != len(c.Procs) {
		return certCyclicGraph
	}
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(region)
	for _, p := range parts {
		sc.Keep(p)
	}
	for j, p := range parts {
		if !m.Implies(p, c.Procs[j].WriteOK) {
			return certWriteIllegal
		}
	}
	proj := sc.Slot(bdd.False)
	z := sc.Slot(bdd.False)
	for j, p := range parts {
		if p == bdd.False {
			continue
		}
		// region′ is read inside the product, never built.
		proj.Set(s.AndPrimeExists(m.And(p, region), region, c.Procs[j].unreadCube))
		// Local GFP over j's readable bits: proj mentions no other variable.
		z.Set(bdd.True)
		for {
			next := m.And(z.Node(), s.Preimage(z.Node(), proj.Node()))
			if next == z.Node() {
				break
			}
			z.Set(next)
		}
		if z.Node() != bdd.False {
			return certCyclicProjection
		}
	}
	return certProved
}

// cyclicCorePeel is the greatest fixpoint itself, peeling states without a
// successor in the set until none is left to peel.
//
// The fixpoint runs on the union of the partitions restricted to sources in
// region, computed once up front: the greatest fixpoint peels the set one
// layer per iteration (a chain of n cells takes ~n iterations), so a single
// static relation whose relational-product subresults stay cached across
// iterations beats re-scanning every partition per iteration. The
// restriction is one conjunction on the union, which distributes to the
// union of the restricted partitions. Targets need no restriction: every
// iterate z lies in region, and the preimage of z reads z′ inside the
// product, so region′ is never built.
func cyclicCorePeel(c *Compiled, parts []bdd.Node, region bdd.Node) bdd.Node {
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(region)
	rel := sc.Keep(m.And(m.OrN(parts...), region))
	z := sc.Slot(region)
	for {
		next := m.And(z.Node(), s.Preimage(z.Node(), rel))
		if next == z.Node() {
			return z.Node()
		}
		z.Set(next)
	}
}
