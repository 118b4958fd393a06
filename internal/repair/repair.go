// Package repair implements the paper's synthesis algorithms for adding
// masking fault-tolerance to distributed programs:
//
//   - AddMasking: Step 1 — the Kulkarni–Arora Add-Masking algorithm, which
//     ignores realizability (read/write) constraints, optionally restricted
//     to the states reachable by the fault-intolerant program in the
//     presence of faults (the heuristic the paper credits for the speedup).
//   - Realize: Step 2 — Algorithm 2, which enforces realizability purely by
//     removing transitions (keeping, per process, only complete
//     read-restriction groups) after adding free transitions outside the
//     fault-span.
//   - Lazy: Algorithm 1 — the outer loop combining the two steps, feeding
//     deadlocks created by Step 2 back into the safety specification.
//   - Cautious: the baseline in the style of the prior tool, which keeps the
//     model realizable after every intermediate add/remove by paying for
//     group closure inside the main fixpoint.
package repair

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bdd"
	"repro/internal/program"
	"repro/internal/witness"
)

// ErrNotRepairable is returned when the invariant collapses to the empty set,
// i.e. no masking fault-tolerant realizable program exists under the
// algorithm's heuristics (Algorithm 1 line 7: "declare failure").
var ErrNotRepairable = errors.New("repair: cannot add fault-tolerance (invariant became empty)")

// ErrNoConvergence is returned if the outer lazy loop exceeds its iteration
// bound without eliminating deadlocks.
var ErrNoConvergence = errors.New("repair: outer repair loop did not converge")

// DeadlockError wraps ErrNoConvergence with concrete evidence: a certified
// trace reaching one of the deadlock states the final iteration could not
// eliminate. errors.Is(err, ErrNoConvergence) still holds, and callers that
// want the trace use errors.As.
type DeadlockError struct {
	// Witness demonstrates one residual deadlock: a computation from the last
	// candidate invariant, under faults, to a state the realized program
	// cannot leave.
	Witness *witness.Trace
	err     error
}

// Error describes the failure and summarizes the witness.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("%v (%s)", e.err, e.Witness.Detail)
}

// Unwrap exposes ErrNoConvergence to errors.Is.
func (e *DeadlockError) Unwrap() error { return e.err }

// cancelled returns a non-nil error wrapping ctx.Err() once the context is
// done. The repair algorithms call it at fixpoint-iteration boundaries, so a
// deadline or cancellation interrupts synthesis between symbolic steps (a
// hung instance is abandoned at the next boundary rather than running to
// completion). errors.Is(err, context.Canceled/DeadlineExceeded) works on
// the result.
func cancelled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("repair: interrupted: %w", err)
	}
	return nil
}

// engineErr classifies an error returned by a parallel-engine call: a
// context cancellation is wrapped like cancelled(ctx); anything else (e.g. a
// *bdd.BudgetError converted by the worker pool) propagates unchanged.
func engineErr(ctx context.Context, err error) error {
	if cerr := cancelled(ctx); cerr != nil {
		return cerr
	}
	return err
}

// Options tune the repair algorithms.
type Options struct {
	// ReachabilityHeuristic restricts Step 1 to the states reachable by the
	// fault-intolerant program in the presence of faults (Section V-A). The
	// paper's headline speedup depends on it; disabling it gives the "pure
	// lazy" variant the paper reports as not competitive.
	ReachabilityHeuristic bool
	// DeferCycleBreaking moves Add-Masking's cycle-breaking from Step 1 to
	// a group-aware pass after Step 2 (whole read-restriction groups are
	// removed at once). The default (false) matches the paper: cycles are
	// broken in Step 1 — but maximally, keeping every transition of the
	// acyclic part of the recovery relation, so that read-restriction
	// groups survive into Step 2; only the cyclic core is filtered to
	// rank-decreasing transitions. An ablation benchmark compares the two.
	DeferCycleBreaking bool
	// MaxOuterIterations bounds Algorithm 1's repeat loop.
	MaxOuterIterations int
	// Mode must be "" or "partitioned" (program.ParseMode); it remains for
	// bench/trace.go.
	Mode string
	// Workers is the number of BDD workers used to fan out the per-process
	// symbolic work inside one synthesis (image unions, group closures),
	// each a private worker manager. Values below 1 select GOMAXPROCS; 1 runs
	// everything on the owning manager with no parallel machinery. Any
	// value yields the same synthesized program: intermediate sets are
	// canonical BDDs and worker results are merged in deterministic task
	// order.
	Workers int
	// NodeBudget, when positive, bounds the live BDD node count of the run's
	// managers: if the synthesis pushes the live count past the budget and a
	// collection cannot bring it back under, the run fails with a
	// *bdd.BudgetError instead of exhausting memory. Zero means unbounded.
	NodeBudget int64
	// Costs, when non-nil, prices every transition of the synthesis through
	// the ADD weight layer (see cost.go): the result gains AchievedCost and
	// CostRemoved, measured under this model. Pricing alone never changes
	// the synthesized program — set MinimizeCost to let the weights steer
	// the synthesis.
	Costs *CostModel
	// MinimizeCost enables the cost-aware refinements of lazy repair: the
	// weighted cycle-elimination order (with DeferCycleBreaking) and the
	// convergence-time thinning pass that removes expensive redundant
	// recovery groups. Requires Costs; the repair verdict is identical with
	// it on or off — only the cost of the synthesized recovery drops.
	MinimizeCost bool
	// Reorder arms dynamic variable reordering on the run's managers: a
	// positive value runs a sifting pass after that many node allocations, a
	// negative value disables reordering entirely (overriding the
	// REPRO_REORDER_STRESS environment default), and 0 keeps the manager
	// default (reordering off unless the stress variable is set). Reordering
	// never changes any synthesized program or witness — only the shape and
	// size of the BDDs along the way.
	Reorder int64
	// Logf, when non-nil, receives progress lines.
	//
	// Concurrency contract: a single repair call invokes Logf sequentially
	// (never from more than one goroutine at a time), so a Logf that only
	// writes to its own destination needs no locking for one call. But the
	// repair algorithms themselves are safe to run concurrently — one
	// compiled program per goroutine — and a Logf value SHARED between
	// concurrent calls (a common logger, a shared buffer) must synchronize
	// its own state; see internal/service's per-job logger for the pattern
	// used by the daemon's worker pool.
	Logf func(format string, args ...any)
	// Phasef, when non-nil, is called at the start of each synthesis step
	// ("step1" when Add-Masking begins, "step2" when realization begins —
	// once per outer iteration). The daemon uses it to feed streaming job
	// progress; the synthesized result never depends on it. Same
	// concurrency contract as Logf.
	Phasef func(phase string)
}

// DefaultOptions returns the configuration used in the paper's headline
// experiments: heuristic on, cycle-breaking in Step 1.
func DefaultOptions() Options {
	return Options{ReachabilityHeuristic: true, MaxOuterIterations: 64}
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o *Options) phase(name string) {
	if o.Phasef != nil {
		o.Phasef(name)
	}
}

// ApplyEngine pushes the manager-tuning options — node budget, reordering
// cadence — onto an engine's owner and worker managers. Every run boundary
// that builds an engine (the repair algorithms, the standalone verifier)
// funnels through it so the knobs mean the same thing everywhere. The
// collection cadence is the manager default (REPRO_GC_STRESS sets it), which
// worker clones inherit when they compile.
func (o *Options) ApplyEngine(eng *program.Engine) {
	if o.NodeBudget > 0 {
		eng.SetNodeBudget(o.NodeBudget)
	}
	if o.Reorder != 0 {
		n := o.Reorder
		if n < 0 {
			n = 0 // manager semantics: <= 0 disables automatic reordering
		}
		eng.SetReorderThreshold(n)
	}
}

// Stats records where the time went, matching the columns of the paper's
// tables.
type Stats struct {
	Step1 time.Duration // Add-Masking time (Table column "Time for Step 1")
	Step2 time.Duration // Algorithm 2 time (Table column "Time for Step 2")
	Total time.Duration

	OuterIterations int     // Algorithm 1 repeat-loop iterations
	ReachableStates float64 // |reachable(S, δ∪f)| (Table column "Reachable States")
	BDDNodes        int     // manager size after synthesis
}

// Result is a synthesized masking fault-tolerant program.
type Result struct {
	// Trans is δ_P': the repaired program's transitions (no stutter; the
	// Definition-18 stutter at deadlock states is implicit).
	Trans bdd.Node
	// Invariant is S': the repaired invariant.
	Invariant bdd.Node
	// FaultSpan is T': the fault-span certified by the synthesis.
	FaultSpan bdd.Node
	Stats     Stats
	// Witnesses holds recovery demonstrations when the caller asked for them
	// (repro.WithWitnesses, the daemon's "witnesses" spec field): certified
	// traces that leave the invariant via faults and converge back. The
	// repair algorithms themselves leave it nil.
	Witnesses []*witness.Trace

	// Costed marks a run priced by a cost model (Options.Costs); the two
	// sums below are zero otherwise. AchievedCost is the weighted count of
	// the kept transitions leaving the repaired invariant — the recovery
	// behavior the repair pays to retain. CostRemoved is the weighted count
	// of original program transitions the repair deleted. Both are exact
	// (each valid transition contributes its integer weight once), and both
	// are functions of the synthesized program and the weights alone, so
	// they are identical across worker counts and engine modes.
	Costed       bool
	AchievedCost float64
	CostRemoved  float64
}

// src returns the states with at least one outgoing transition in delta.
func src(c *program.Compiled, delta bdd.Node) bdd.Node {
	m := c.Space.M
	return m.AndExists(delta, c.Space.ValidTrans(), c.Space.NextCube())
}

// srcInto returns the states of from with an edge into to, computed per
// partition to keep intermediate products small. The preimage is taken
// against the raw partition (∃next. p ∧ to′ is conjoined with from
// afterwards — from constrains current-state bits only, so the two forms are
// equivalent): keeping the static partition as the cached operand lets the
// product cache carry across fixpoint iterations where only to changes.
func srcInto(c *program.Compiled, parts []bdd.Node, from, to bdd.Node) bdd.Node {
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(from)
	sc.Keep(to)
	for _, p := range parts {
		sc.Keep(p)
	}
	out := sc.Slot(bdd.False)
	for _, p := range parts {
		out.Set(m.Or(out.Node(), s.Preimage(to, p)))
	}
	return m.And(from, out.Node())
}

// ComputeMsMt computes the set ms of states from which fault transitions
// alone can violate safety, and the set mt of transitions the fault-tolerant
// program must never execute (Section V-A). It is exported for the
// synchronous-semantics extension, which reuses the Add-Masking skeleton.
func ComputeMsMt(c *program.Compiled, badTrans bdd.Node) (ms, mt bdd.Node) {
	ms, mt, _ = ComputeMsMtEngine(context.Background(), program.SerialEngine(c), badTrans)
	return ms, mt
}

// ComputeMsMtEngine is ComputeMsMt running its fault-closure fixpoint on the
// engine's unified scheduler. The closure is an ordinary backward
// reachability under the fault partitions: every compiled action — faults
// included — is conjoined with ValidTrans, so fault preimages of invalid
// states are empty and restricting the seed to ValidCur (which
// BackwardReachableParts does) loses nothing.
func ComputeMsMtEngine(ctx context.Context, e *program.Engine, badTrans bdd.Node) (ms, mt bdd.Node, err error) {
	c := e.C
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(badTrans)
	// Sources of fault transitions that themselves violate safety.
	ms0 := sc.Keep(m.Or(c.BadStates, src(c, m.And(c.Fault, badTrans))))
	back, err := e.BackwardReachableParts(ctx, ms0, c.FaultParts)
	if err != nil {
		return bdd.False, bdd.False, err
	}
	ms = sc.Keep(m.Or(ms0, back))
	mt = m.Or(badTrans, m.And(s.Prime(ms), s.ValidTrans()))
	return ms, mt, nil
}

// Invariant states that lose all their transitions during repair are NOT
// pruned: Definition 5 permits finite maximal computations, the invariant
// stays closed, and safety is refined trivially by a computation that rests
// inside the invariant. (The paper's instances carry no explicit liveness
// specification; the liveness half of masking — recovery — applies to
// fault-span states outside the invariant, which the algorithms do keep
// deadlock- and livelock-free.) The verifier still reports new invariant
// deadlocks as a warning so model authors can see lost progress.

// LayeredRecovery builds the recovery transition set, realizing Add-Masking's
// "break cycles by removing transitions" step in polynomial time while
// keeping the behavior maximal (Section V: transitions removed in Step 1
// should be ones that must, or are very likely to, be removed):
//
//   - First the cyclic core Z of T−S under avail is computed (the greatest
//     fixpoint of states with a successor inside the set). Every cycle of
//     avail within T−S lies entirely inside Z, so *all* avail transitions
//     from acyclic states are kept — removing any of them would be
//     unnecessary and would needlessly break read-restriction groups in
//     Step 2.
//   - Inside Z, transitions are kept only if they strictly decrease a
//     breadth-first rank toward the already-safe states, which breaks every
//     cycle.
//
// avail must be the union of availParts. The parts go to CyclicCore, whose
// certificate needs one relation per process; the acyclic seed and each rank
// layer are one conjunction on avail, which by distributivity (avail ∧ X =
// ⋃_p (p ∧ X)) is the same set, hence the same node, as conjoining each part.
//
// It returns the transitions and the set of states with guaranteed recovery;
// the caller prunes unranked states from the fault-span and re-runs its
// fixpoint.
func LayeredRecovery(c *program.Compiled, invariant, span, avail bdd.Node, availParts []bdd.Node) (rec, ranked bdd.Node) {
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(invariant)
	sc.Keep(avail)
	for _, p := range availParts {
		sc.Keep(p)
	}
	outside := sc.Keep(m.Diff(span, invariant))

	// Cyclic core: states of T−S with an infinite avail-path inside T−S.
	z := sc.Keep(program.CyclicCore(c, availParts, outside))

	acyclic := sc.Keep(m.Diff(outside, z))
	recS := sc.Slot(m.And(avail, acyclic)) // keep everything from acyclic states
	// The ranked states are always all = invariant ∪ span minus the
	// remaining ones: they start as invariant ∪ acyclic, z ⊆ outside, and
	// each layer moves its states from one set to the other. So the layer
	// avail ∧ remaining ∧ ranked′ is into ∧ remaining ∧ ¬remaining′, one
	// three-operand product, with into = avail ∧ all′ fixed for the loop
	// (avail itself when, as in AddMasking, avail ends inside the span) and
	// built only when there is a layer to build.
	all := sc.Keep(m.Or(invariant, span))
	into := bdd.False
	if z != bdd.False {
		into = sc.Keep(m.And(avail, s.Prime(all)))
	}
	remaining := sc.Slot(z)
	stepS := sc.Slot(bdd.False)
	for remaining.Node() != bdd.False {
		step := stepS.Set(m.AndDiff(into, remaining.Node(), s.Prime(remaining.Node())))
		newly := src(c, step)
		if newly == bdd.False {
			break // leftover states cannot recover; caller prunes them
		}
		recS.Set(m.Or(recS.Node(), step))
		remaining.Set(m.Diff(remaining.Node(), newly))
	}
	return recS.Node(), m.Diff(all, remaining.Node())
}
