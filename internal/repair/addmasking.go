package repair

import (
	"context"

	"repro/internal/bdd"
	"repro/internal/program"
)

// Masking is the output of Step 1 (Add-Masking): a fault-tolerant but not
// necessarily realizable program.
type Masking struct {
	// Trans is the intermediate program's transitions (realizability
	// constraints ignored).
	Trans bdd.Node
	// Invariant is S1, the repaired invariant.
	Invariant bdd.Node
	// FaultSpan is T1, the certified fault-span.
	FaultSpan bdd.Node
	// Iterations counts the shrink-fixpoint iterations.
	Iterations int
}

// AddMasking implements Step 1 of the lazy-repair algorithm: the
// polynomial-time Add-Masking algorithm of Kulkarni–Arora, tailored (per
// Section V-A) to the subset of the state space reachable by the
// fault-intolerant program in the presence of faults when
// opts.ReachabilityHeuristic is set.
//
// invariant is the current set of legitimate states S (it shrinks across
// Algorithm 1's outer iterations), and badTrans is the current Sf_bt (it
// grows as Algorithm 1 feeds back deadlock information). Bad states Sf_bs
// and the fault actions come from the compiled program.
//
// The returned program ignores read/write restrictions; Realize (Step 2)
// turns it into a realizable one.
//
// The context is checked at each shrink-fixpoint iteration and inside the
// symbolic reachability fixpoints, so cancellation aborts the step between
// symbolic operations.
func AddMasking(ctx context.Context, c *program.Compiled, invariant, badTrans bdd.Node, opts Options) (*Masking, error) {
	return AddMaskingEngine(ctx, program.SerialEngine(c), invariant, badTrans, opts)
}

// AddMaskingEngine is AddMasking running its reachability fixpoints on the
// given engine, fanning the per-partition images across the engine's worker
// managers when it has more than one.
func AddMaskingEngine(ctx context.Context, e *program.Engine, invariant, badTrans bdd.Node, opts Options) (*Masking, error) {
	c := e.C
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(invariant)
	sc.Keep(badTrans)

	ms, mt, err := ComputeMsMtEngine(ctx, e, badTrans)
	if err != nil {
		return nil, engineErr(ctx, err)
	}
	sc.Keep(ms)
	notMT := sc.Keep(m.Not(mt))

	// First guesses for invariant and fault-span.
	s1 := sc.Slot(m.Diff(invariant, ms))
	if s1.Node() == bdd.False {
		return nil, ErrNotRepairable
	}
	universe := s.ValidCur()
	if opts.ReachabilityHeuristic {
		// States reached by the fault-intolerant program in the presence of
		// faults. Transitions the current specification already prohibits
		// (mt) are excluded: across Algorithm 1's outer iterations the
		// specification grows, and states only reachable through banned
		// behavior must drop out of the universe for the loop to converge.
		var err error
		universe, err = e.ReachableParts(ctx, invariant, c.PartsWithFaults(notMT))
		if err != nil {
			return nil, engineErr(ctx, err)
		}
	}
	t1 := sc.Slot(m.Diff(universe, ms))

	iterations := 0
	// Loop-carried relations: slots, reassigned every shrink iteration.
	availInside := sc.Slot(bdd.False)
	availOutside := sc.Slot(bdd.False)
	rec := sc.Slot(bdd.False)
	partSlots := make([]*bdd.Rooted, 2*len(c.Procs))
	for i := range partSlots {
		partSlots[i] = sc.Slot(bdd.False)
	}
	t2 := sc.Slot(bdd.False)
	for {
		iterations++
		if err := cancelled(ctx); err != nil {
			return nil, err
		}

		availParts := recoveryParts(c, partSlots, s1.Node(), t1.Node(), notMT)
		availInside.Set(bdd.False)
		availOutside.Set(bdd.False)
		for i := 0; i < len(availParts); i += 2 {
			availInside.Set(m.Or(availInside.Node(), availParts[i]))
			availOutside.Set(m.Or(availOutside.Node(), availParts[i+1]))
		}

		// Remove fault-span states from which recovery to the invariant is
		// impossible.
		back, err := e.BackwardReachableParts(ctx, s1.Node(), availParts)
		if err != nil {
			return nil, engineErr(ctx, err)
		}
		t2.Set(m.And(t1.Node(), back))
		// Remove fault-span states from which faults escape the span: the
		// states that can reach the span's complement through fault chains
		// are one backward reachability under the fault partitions (faults
		// are conjoined with ValidTrans at compile time, so every chain
		// stays in valid states).
		esc, err := e.BackwardReachableParts(ctx, m.Diff(s.ValidCur(), t2.Node()), c.FaultParts)
		if err != nil {
			return nil, engineErr(ctx, err)
		}
		t2.Set(m.Diff(t2.Node(), esc))
		// Keep the invariant inside the span and deadlock-free.
		s2 := m.And(s1.Node(), t2.Node())
		if s2 == bdd.False {
			return nil, ErrNotRepairable
		}

		if s2 != s1.Node() || t2.Node() != t1.Node() {
			s1.Set(s2)
			t1.Set(t2.Node())
			continue
		}

		// The shrink fixpoint is stable; construct the recovery transitions
		// (original behavior inside the invariant is availInside). By
		// default cycles are broken here, maximally: every transition of
		// the acyclic part of the recovery relation is kept — removing any
		// would needlessly break read-restriction groups in Step 2 — and
		// only the cyclic core is filtered to rank-decreasing transitions.
		// Span states left without guaranteed recovery are pruned and the
		// fixpoint re-runs. With DeferCycleBreaking, recovery stays maximal
		// here and the lazy driver eliminates cycles group-awarely after
		// Step 2.
		if opts.DeferCycleBreaking {
			rec.Set(availOutside.Node())
			break
		}
		outsideParts := make([]bdd.Node, 0, len(availParts)/2)
		for i := 1; i < len(availParts); i += 2 {
			outsideParts = append(outsideParts, availParts[i])
		}
		r, ranked := LayeredRecovery(c, s1.Node(), t1.Node(), availOutside.Node(), outsideParts)
		rec.Set(r)
		if ranked != t1.Node() {
			t1.Set(ranked)
			continue
		}
		break
	}

	// The result's relations outlive this scope (the lazy driver holds them
	// across Step 2 and its fixpoints), so they stay rooted for the life of
	// the manager.
	return &Masking{
		Trans:      m.Ref(m.Or(availInside.Node(), rec.Node())),
		Invariant:  m.Ref(s1.Node()),
		FaultSpan:  m.Ref(t1.Node()),
		Iterations: iterations,
	}, nil
}

// recoveryParts builds one shrink iteration's relations into slots, two per
// process, and returns them in that order: inside the invariant, the
// process's original transitions that keep it closed, p.Trans ∧ S1 ∧ S1′ ∧
// ¬mt; outside it, any write-legal transition that stays in the fault-span
// and is not prohibited, p.WriteOK ∧ T1 ∧ T1′ ∧ ¬S1 ∧ ¬mt ∧ ¬id ∧
// ValidTrans. Write restrictions cost one conjunction per process here; the
// complexity the paper defers to Step 2 is the read restrictions' grouping.
// Self-loops (id) make no recovery progress and would put every state in
// the cyclic core. Each part is cut from its process's own relation: the
// global contexts are only ever read one process at a time, and nothing
// collects a product no one keeps (DESIGN.md §14, "Building predicates").
func recoveryParts(c *program.Compiled, slots []*bdd.Rooted, s1, t1, notMT bdd.Node) []bdd.Node {
	s := c.Space
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	s1p := sc.Keep(s.Prime(s1))
	t1p := sc.Keep(s.Prime(t1))
	notS1 := sc.Keep(m.Not(s1))
	notID := sc.Keep(m.Not(s.Identity()))
	parts := make([]bdd.Node, 2*len(c.Procs))
	for i, p := range c.Procs {
		parts[2*i] = slots[2*i].Set(m.AndN(p.Trans, s1, s1p, notMT))
		parts[2*i+1] = slots[2*i+1].Set(m.AndN(p.WriteOK, t1, t1p, notS1, notMT, notID, s.ValidTrans()))
	}
	return parts
}
