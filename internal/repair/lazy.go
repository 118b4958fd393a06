package repair

import (
	"context"
	"time"

	"repro/internal/bdd"
	"repro/internal/program"
	"repro/internal/witness"
)

// Lazy implements Algorithm 1: adding masking fault-tolerance to a
// distributed program via lazy repair.
//
// Each outer iteration first runs Add-Masking (Step 1, realizability
// ignored), then Realize (Step 2, realizability enforced by removal). If
// Step 2's removals created deadlock states inside the fault-span, those
// states are made unreachable by adding every transition into them — and
// every transition escaping the fault-span — to the bad-transition part of
// the safety specification, and the loop repeats (Algorithm 1 lines 10–12).
//
// The context is consulted at fixpoint-iteration boundaries (the outer
// repeat loop, Step 1's shrink fixpoint, and the long symbolic reachability
// fixpoints), so a deadline or cancellation aborts a hung synthesis between
// symbolic steps with an error wrapping ctx.Err().
func Lazy(ctx context.Context, c *program.Compiled, opts Options) (*Result, error) {
	eng, err := program.NewEngine(c, opts.Workers)
	if err != nil {
		return nil, err
	}
	return LazyEngine(ctx, eng, opts)
}

// LazyEngine is Lazy running on a caller-supplied engine, so the engine's
// worker clones can be shared with the verifier (see internal/core.Run).
func LazyEngine(ctx context.Context, eng *program.Engine, opts Options) (*Result, error) {
	opts.ApplyEngine(eng)
	c := eng.C
	m := c.Space.M
	s := c.Space
	start := time.Now()
	sc := m.Protect()
	defer sc.Release()

	var stats Stats
	reach, err := eng.ReachableParts(ctx, c.Invariant, c.PartsWithFaults(bdd.True))
	if err != nil {
		return nil, engineErr(ctx, err)
	}
	stats.ReachableStates = s.CountStates(reach)

	// The weight ADD of a costed run, built once on the owning manager (see
	// cost.go). nil slot means uncosted.
	var weight *bdd.Rooted
	if opts.Costs != nil {
		weight = sc.Slot(buildWeight(c, opts.Costs))
	}

	invariant := sc.Slot(c.Invariant)
	badTrans := sc.Slot(c.BadTrans)

	maxIter := opts.MaxOuterIterations
	if maxIter <= 0 {
		maxIter = 64
	}
	// Loop-carried slots: the realized per-process relations, their union,
	// the certified span, the residual deadlocks, and the residue of the
	// last iteration (kept for the non-convergence witness).
	partSlots := make([]*bdd.Rooted, len(c.Procs))
	for i := range partSlots {
		partSlots[i] = sc.Slot(bdd.False)
	}
	realizedS := sc.Slot(bdd.False)
	lastDL := sc.Slot(bdd.False)
	lastRealized := sc.Slot(bdd.False)
	lastInv := sc.Slot(bdd.False)
	for iter := 1; iter <= maxIter; iter++ {
		stats.OuterIterations = iter
		if err := cancelled(ctx); err != nil {
			return nil, err
		}

		opts.phase("step1")
		t0 := time.Now()
		mask, err := AddMaskingEngine(ctx, eng, invariant.Node(), badTrans.Node(), opts)
		stats.Step1 += time.Since(t0)
		if err != nil {
			return nil, err
		}
		if opts.Logf != nil {
			opts.logf("lazy: iteration %d: step 1 done (|S'|=%g, |T'|=%g)",
				iter, s.CountStates(mask.Invariant), s.CountStates(mask.FaultSpan))
		}

		opts.phase("step2")
		t1 := time.Now()
		parts, err := RealizePartsEngine(ctx, eng, mask.Trans, mask.FaultSpan)
		if err != nil {
			return nil, engineErr(ctx, err)
		}
		for j, p := range parts {
			partSlots[j].Set(p)
		}
		realized := realizedS.Set(m.OrN(parts...))

		// Cycle elimination. With cycle-breaking done in Step 1 (the
		// default), the realized program is a subset of an already
		// livelock-free relation, so no cycle work is needed here — exactly
		// the paper's Algorithm 2. In the DeferCycleBreaking ablation, Step 1
		// kept recovery maximal and cycles are eliminated here, group-aware:
		// removing a single rank-violating transition would break its group
		// and un-realize the program, so whole read-restriction groups are
		// removed at once. Each pass ranks the region by breadth-first
		// distance to the invariant and collects in bad every edge that does
		// not strictly decrease the rank. A cycle may still close through a
		// rank-decreasing edge (s→t down, t→s up), so the infinite-path
		// fixpoint runs on the whole realized relation; every cycle in its
		// core has at least one non-decreasing edge, and bad ∧ core ∧ core′
		// holds all of those.
		region := sc.Keep(m.Diff(mask.FaultSpan, mask.Invariant))
		for opts.DeferCycleBreaking {
			if err := cancelled(ctx); err != nil {
				return nil, err
			}
			isc := m.Protect()
			bad, unranked := rankViolations(c, parts, realized, mask.Invariant, region)
			isc.Keep(bad)
			isc.Keep(unranked)
			core := isc.Keep(program.CyclicCore(c, parts, region))
			toRemove := isc.Keep(m.Or(m.AndN(bad, core, s.Prime(core)), m.And(bad, unranked)))
			// Cost-aware refinement: drop only the cheapest weight class per
			// pass. Ranks are recomputed against the shrunken relation each
			// pass, so expensive rank-violating transitions often become
			// rank-decreasing — and survive — once their cheap cycle-mates are
			// gone. The loop already runs until no pass changes anything, so
			// the restriction adds passes, never outer iterations.
			if opts.MinimizeCost && weight != nil {
				toRemove = isc.Keep(cheapestClass(m, toRemove, weight.Node()))
			}
			changed := false
			for j, p := range c.Procs {
				pb := m.And(parts[j], toRemove)
				if pb == bdd.False {
					continue
				}
				parts[j] = partSlots[j].Set(m.Diff(parts[j], p.Group(pb)))
				changed = true
			}
			isc.Release()
			if !changed {
				break
			}
			realized = realizedS.Set(m.OrN(parts...))
		}
		certSpan, err := eng.ReachableParts(ctx, mask.Invariant, append(append([]bdd.Node{}, parts...), c.FaultParts...))
		if err != nil {
			return nil, engineErr(ctx, err)
		}
		sc.Keep(certSpan)

		// Deadlocks among the states actually reachable from the repaired
		// invariant in the realized program under faults, outside the
		// repaired invariant. (The fault-span of Definition 15 is
		// existentially quantified, so deadlocked states the realized
		// program can no longer reach are harmless — the reachable set
		// itself is the certificate. Deadlocks inside the invariant are
		// legal finite computations; see the note in repair.go.)
		noOut := m.Diff(s.ValidCur(), src(c, realized))
		dl := sc.Keep(m.AndN(certSpan, noOut, m.Not(mask.Invariant)))
		stats.Step2 += time.Since(t1)

		if dl == bdd.False {
			// Cost-aware refinement: with the repair converged, thin the
			// synthesized recovery from the most expensive group class down,
			// keeping the verdict (removal-only, whole groups) while lowering
			// AchievedCost. See cost.go.
			if opts.MinimizeCost && weight != nil {
				opts.phase("thin")
				span, terr := thinRecovery(ctx, eng, mask.Invariant, certSpan, weight.Node(), parts, partSlots, &opts)
				if terr != nil {
					return nil, terr
				}
				certSpan = sc.Keep(span)
				realized = realizedS.Set(m.OrN(parts...))
			}
			stats.Total = time.Since(start)
			stats.BDDNodes = m.Size()
			opts.logf("lazy: converged after %d iteration(s)", iter)
			// The result's relations outlive this call's scope; root them for
			// the life of the manager.
			res := &Result{
				Trans:     m.Ref(realized),
				Invariant: m.Ref(mask.Invariant),
				FaultSpan: m.Ref(certSpan),
				Stats:     stats,
			}
			if weight != nil {
				measureCosts(c, res, weight.Node())
			}
			return res, nil
		}
		if opts.Logf != nil {
			opts.logf("lazy: iteration %d: %g deadlock state(s); augmenting spec",
				iter, s.CountStates(dl))
		}
		lastDL.Set(dl)
		lastRealized.Set(realized)
		lastInv.Set(mask.Invariant)

		// Feedback (Algorithm 1 line 11, refined). A state deadlocks when
		// Step 2 removed its Step-1 transitions because their groups were
		// incomplete: some member, starting from another reachable state,
		// was removed in Step 1 for a good reason. The direct cure is to
		// make those *blocking member sources* unreachable — banning
		// transitions into them lets the group complete as free transitions
		// in the next iteration. Only when no blocker can be eliminated are
		// the deadlock states themselves made unreachable.
		isc := m.Protect()
		free := m.And(m.Not(mask.FaultSpan), s.ValidTrans())
		have := isc.Keep(m.Or(m.And(mask.Trans, s.ValidTrans()), free))
		dlOut := isc.Keep(m.And(mask.Trans, dl))
		blockersS := isc.Slot(bdd.False)
		for _, p := range c.Procs {
			cand := m.And(dlOut, p.WriteOK)
			if cand == bdd.False {
				continue
			}
			missing := m.Diff(p.Group(cand), have)
			blockersS.Set(m.Or(blockersS.Node(), src(c, missing)))
		}
		blockers := isc.Keep(m.Diff(blockersS.Node(), mask.Invariant))

		escape := m.AndN(mask.FaultSpan, m.Not(s.Prime(mask.FaultSpan)), s.ValidTrans())
		next := isc.Slot(m.Or(badTrans.Node(), escape))
		if blockers != bdd.False {
			next.Set(m.Or(next.Node(), m.And(s.Prime(blockers), s.ValidTrans())))
			if opts.Logf != nil {
				opts.logf("lazy: iteration %d: banning entry to %g blocking state(s)",
					iter, s.CountStates(blockers))
			}
		}
		// Transitions Step 2 provably could not realize from the deadlocked
		// states (e.g. multi-variable jumps whose group twins would be new
		// behavior inside the invariant) are banned outright, so the next
		// Step 1 routes recovery around them — typically through echoes of
		// the original protocol, whose groups do survive.
		unrealizable := m.Diff(dlOut, realized)
		if unrealizable != bdd.False {
			next.Set(m.Or(next.Node(), unrealizable))
		}
		if next.Node() == badTrans.Node() {
			// No new blocker information: fall back to making the deadlock
			// states themselves unreachable.
			next.Set(m.Or(next.Node(), m.And(s.Prime(dl), s.ValidTrans())))
		}
		badTrans.Set(next.Node())
		invariant.Set(mask.Invariant)
		isc.Release()
	}
	// Carry evidence out of the failure: a certified trace to one of the
	// deadlock states the final iteration could not eliminate. Extraction
	// failure (or cancellation racing the bound) falls back to the bare
	// sentinel.
	if lastDL.Node() != bdd.False {
		x := witness.New(c)
		if tr, werr := x.Deadlock(ctx, lastRealized.Node(), lastInv.Node(), lastDL.Node()); werr == nil && tr != nil {
			tr.Check = "repair convergence"
			return nil, &DeadlockError{Witness: tr, err: ErrNoConvergence}
		}
	}
	return nil, ErrNoConvergence
}

// rankViolations ranks region by breadth-first distance to invariant under
// realized, the union of parts, and returns bad (each edge that does not
// strictly decrease the rank, and each edge from an unranked state) with the
// unranked states. Each layer conjoins realized once instead of every part:
// by distributivity the same set, hence the same node.
func rankViolations(c *program.Compiled, parts []bdd.Node, realized, invariant, region bdd.Node) (bad, unranked bdd.Node) {
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(realized)
	ranked := sc.Slot(invariant)
	remaining := sc.Slot(region)
	badS := sc.Slot(bdd.False)
	for remaining.Node() != bdd.False {
		newly := sc.Keep(srcInto(c, parts, remaining.Node(), ranked.Node()))
		if newly == bdd.False {
			break
		}
		badS.Set(m.Or(badS.Node(), m.AndDiff(realized, newly, s.Prime(ranked.Node()))))
		ranked.Set(m.Or(ranked.Node(), newly))
		remaining.Set(m.Diff(remaining.Node(), newly))
	}
	// Unranked states can never reach the invariant: their edges are
	// useless; removing them deadlocks the states, which LazyEngine's
	// feedback then makes unreachable.
	badS.Set(m.Or(badS.Node(), m.And(realized, remaining.Node())))
	return badS.Node(), remaining.Node()
}
