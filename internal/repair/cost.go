package repair

// Cost-aware lazy repair. A repair problem's transitions are priced by an
// ADD weight layer (see internal/bdd's add.go): each valid transition
// carries a positive integer weight assembled from .ftr cost annotations,
// cost rules, and the caller's CostModel overrides, with unpriced
// transitions defaulting to weight 1. Two refinements spend that
// information:
//
//   - The deferred cycle-elimination pass (Options.DeferCycleBreaking)
//     removes the cheapest weight class of rank-violating transitions first;
//     later passes recompute ranks against the shrunken relation, which can
//     spare expensive transitions a cost-blind pass would have dropped.
//   - At convergence, a thinning pass walks the synthesized recovery
//     transitions from the most expensive group class down and deletes whole
//     read-restriction groups whose removal keeps every reachable
//     fault-span state able to recover, re-adding exactly the groups whose
//     loss broke a recovery path.
//
// Both refinements only ever shrink the converged relation toward cheaper
// recovery, so the repair verdict — and every verifier check — is unchanged;
// only AchievedCost drops. All ADD work runs on the engine's owning manager,
// never on a worker manager, which is what makes weighted runs
// byte-identical across worker counts.

import (
	"context"

	"repro/internal/bdd"
	"repro/internal/program"
)

// CostModel prices transitions for cost-aware repair.
type CostModel struct {
	// Default is the weight of transitions no other source prices; values
	// below 1 mean 1.
	Default int64
	// Actions overrides per-action weights by name: a "proc.action" key
	// binds one process's action, a bare "action" key binds every action
	// with that name. Qualified keys win over bare ones, and both win over
	// the .ftr annotation. Entries below 1 are ignored.
	Actions map[string]int64
}

// actionWeight resolves one process/action pair against the model's
// overrides, falling back to the declared .ftr annotation.
func (cm *CostModel) actionWeight(proc, action string, declared int64) int64 {
	if w, ok := cm.Actions[proc+"."+action]; ok && w > 0 {
		return w
	}
	if w, ok := cm.Actions[action]; ok && w > 0 {
		return w
	}
	return declared
}

// buildWeight lowers the cost model onto the compiled program as a
// transition-weight ADD. The caller roots the result.
func buildWeight(c *program.Compiled, cm *CostModel) bdd.Node {
	return c.WeightADD(cm.actionWeight, cm.Default)
}

// measureCosts prices a synthesis result under the weight ADD: AchievedCost
// sums the weights of the kept transitions leaving the repaired invariant
// (the recovery behavior the repair pays to retain), CostRemoved sums the
// weights of the original program's transitions the repair deleted.
func measureCosts(c *program.Compiled, res *Result, w bdd.Node) {
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	rec := sc.Keep(m.AndN(res.Trans, m.Not(res.Invariant), s.ValidTrans()))
	res.AchievedCost = m.AddSum(sc.Keep(m.ITE(rec, w, bdd.False)))
	removed := sc.Keep(m.Diff(m.And(c.Trans, s.ValidTrans()), res.Trans))
	res.CostRemoved = m.AddSum(sc.Keep(m.ITE(removed, w, bdd.False)))
	res.Costed = true
}

// cheapestClass restricts delta to the transitions whose weight under w
// equals the minimum weight present in delta. False stays False.
func cheapestClass(m *bdd.Manager, delta, w bdd.Node) bdd.Node {
	if delta == bdd.False {
		return bdd.False
	}
	sc := m.Protect()
	defer sc.Release()
	priced := sc.Keep(m.ITE(delta, w, m.AddConst(bdd.AddInf)))
	v := m.AddMinValue(priced)
	if v >= bdd.AddInf {
		return bdd.False
	}
	atLeast := sc.Keep(m.Threshold(priced, v))
	return m.And(delta, m.Diff(atLeast, m.Threshold(priced, v+1)))
}

// thinAlwaysExact sends every thinning trial through the exact loop,
// bypassing the local commit. Only tests set it: it is the reference the
// local commit is checked against.
var thinAlwaysExact bool

// thinRecovery is the convergence-time cost-minimization pass of lazy
// repair. parts must be the converged realized per-process relations R and
// span their certified span S: the states reachable from the invariant under
// R and the faults. Every state of S outside the invariant must recover
// under R (the sub-relation outside the invariant is acyclic and deadlocks
// nowhere in S); lazy's convergence check establishes this, and every commit
// below preserves it. The pass walks the synthesized recovery transitions —
// kept transitions outside the repaired invariant that the fault-intolerant
// program did not already have — from the most expensive read-restriction
// group class down (per program.GroupMinCost), and per process tries to
// remove each whole group class:
//
//   - Local commit. If no removed transition starts in S, the trial commits
//     without a fixpoint. S is closed under R, so every path from the
//     invariant into S lies inside S, and so does every recovery path out of
//     S∖invariant; neither kind can use a removed transition. The trial's
//     span is therefore S again and no state of it is broken, so the exact
//     loop would reach the same commit after two fixpoints. This is the
//     locality the paper's Step 2 uses when it treats transitions that start
//     outside the fault-span as free.
//   - Exact loop. Otherwise the trial recomputes its span (forward) and the
//     states that can still recover (backward), re-adds exactly the groups
//     whose loss left some span state unable to recover, and repeats until
//     nothing is broken (commit) or everything was re-added (no change).
//
// Removal is the only mutation, so livelock freedom, realizability (full
// groups only), and every safety property of the converged relation are
// preserved. parts and partSlots are updated in place. S is carried across
// trials — a local commit keeps it, an exact commit replaces it with the
// trial's span — and is returned as the certified span of the thinned
// relation (rooted via the caller's scope when kept).
func thinRecovery(ctx context.Context, eng *program.Engine, invariant, span, w bdd.Node,
	parts []bdd.Node, partSlots []*bdd.Rooted, opts *Options) (bdd.Node, error) {
	c := eng.C
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(invariant)
	sc.Keep(w)
	spanS := sc.Slot(span)

	// reach/backward recompute the certificate of a trial relation: the span
	// reachable from the invariant under program+faults, and the states that
	// can recover into the invariant via program transitions alone.
	reach := func(ps []bdd.Node) (bdd.Node, error) {
		return eng.ReachableParts(ctx, invariant, append(append([]bdd.Node{}, ps...), c.FaultParts...))
	}

	// Original program transitions are never thinned: deleting them is what
	// CostRemoved charges for, the opposite of this pass's objective.
	orig := sc.Keep(m.And(c.Trans, s.ValidTrans()))

	// thinProc thins process j's recovery. It owns its scope, so every exit
	// (cancellation and engine errors included) releases what it rooted.
	thinProc := func(j int) error {
		p := c.Procs[j]
		psc := m.Protect()
		defer psc.Release()
		// Groups with a member inside the invariant or in the original
		// program are anchored: groups are removed whole or not at all, and
		// anchored members must stay.
		anchored := psc.Keep(p.Group(m.And(parts[j], m.Or(invariant, orig))))
		cand := psc.Keep(m.Diff(m.AndN(parts[j], m.Not(invariant), m.Not(orig)), anchored))
		if cand == bdd.False {
			return nil
		}
		gcost := psc.Keep(p.GroupMinCost(cand, w))
		classes := m.AddTerminals(gcost)
		// Classes ascend; walk them descending and skip the +∞ background
		// (read classes where cand has no member).
		for i := len(classes) - 1; i >= 0; i-- {
			v := classes[i]
			if v >= bdd.AddInf {
				continue
			}
			isc := m.Protect()
			classPred := isc.Keep(m.Diff(m.Threshold(gcost, v), m.Threshold(gcost, v+1)))
			removal := isc.Keep(m.AndN(p.GroupExpand(classPred), parts[j], m.Not(invariant), m.Not(orig)))
			if removal == bdd.False {
				isc.Release()
				continue
			}
			trial := isc.Slot(m.Diff(parts[j], removal))
			removed := isc.Slot(removal)
			// The span constrains current-state bits only, so an empty
			// conjunction means no removed transition starts in it: the
			// local commit.
			committed := !thinAlwaysExact && m.And(spanS.Node(), removal) == bdd.False
			for !committed {
				if err := cancelled(ctx); err != nil {
					isc.Release()
					return err
				}
				if removed.Node() == bdd.False {
					// Everything re-added: the trial equals the converged
					// part, which is known good — nothing to commit.
					break
				}
				ps := append([]bdd.Node{}, parts...)
				ps[j] = trial.Node()
				trialSpan, err := reach(ps)
				if err != nil {
					isc.Release()
					return engineErr(ctx, err)
				}
				isc.Keep(trialSpan)
				back, err := eng.BackwardReachableParts(ctx, invariant, ps)
				if err != nil {
					isc.Release()
					return engineErr(ctx, err)
				}
				isc.Keep(back)
				broken := m.Diff(m.Diff(trialSpan, invariant), back)
				if broken == bdd.False {
					spanS.Set(trialSpan)
					committed = true
					break
				}
				// Some broken state's recovery path lost its first removed
				// edge at a broken state, so this re-add set is non-empty
				// whenever broken is (see DESIGN.md §20); the guard below is
				// belt-and-braces against that argument being violated.
				readd := m.And(removed.Node(), p.Group(m.And(removed.Node(), broken)))
				if readd == bdd.False {
					break
				}
				trial.Set(m.Or(trial.Node(), readd))
				removed.Set(m.Diff(removed.Node(), readd))
			}
			if committed {
				parts[j] = partSlots[j].Set(trial.Node())
				if opts.Logf != nil {
					opts.logf("lazy: cost thinning: process %s: dropped %g class-%d recovery transition(s)",
						p.Name, s.CountTransitions(removed.Node()), v)
				}
			}
			isc.Release()
		}
		return nil
	}
	for j := range parts {
		if err := cancelled(ctx); err != nil {
			return bdd.False, err
		}
		if err := thinProc(j); err != nil {
			return bdd.False, err
		}
	}
	return spanS.Node(), nil
}
