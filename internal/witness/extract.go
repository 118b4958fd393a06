package witness

import (
	"context"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/program"
)

// part is one labeled slice of the transition relation used for frontier
// search and step attribution.
type part struct {
	rel  bdd.Node
	kind StepKind
	by   string
}

// Extractor reconstructs concrete traces from the symbolic fixpoints of one
// compiled program. All operations run on the owning manager; extraction is
// deterministic for a given (model, result) pair regardless of how the result
// was computed (canonical BDDs plus fixed branch and partition order).
type Extractor struct {
	c *program.Compiled
}

// New builds an extractor over c.
func New(c *program.Compiled) *Extractor { return &Extractor{c: c} }

// maxTraceSteps bounds path reconstruction as a safety net; the frontier
// layers of any terminating fixpoint are far fewer on the paper's models.
const maxTraceSteps = 1 << 14

// PickState selects one concrete state from a nonempty state predicate,
// deterministically: the satisfying cube that always prefers the low branch,
// with don't-care bits resolved to 0. It returns nil when the set is empty.
func (x *Extractor) PickState(set bdd.Node) map[string]int {
	s := x.c.Space
	m := s.M
	valid := m.And(set, s.ValidCur())
	cube := m.PickCube(valid)
	if cube == nil {
		return nil
	}
	out := make(map[string]int, len(s.Vars))
	for _, v := range s.Vars {
		out[v.Name] = v.DecodeCube(cube)
	}
	return out
}

// stateNode builds the BDD point of a full assignment.
func (x *Extractor) stateNode(state map[string]int) bdd.Node {
	s := x.c.Space
	m := s.M
	out := bdd.True
	for _, v := range s.Vars {
		out = m.And(out, v.EqConst(state[v.Name]))
	}
	return out
}

// parts builds the labeled partition list: per-process slices of trans (each
// process's maximal realizable subset, the verifier's partitioning, split on
// the serial engine) followed by an anonymous remainder slice (transitions
// of trans no single process realizes — they still belong to the relation
// being witnessed), and finally the per-action fault slices.
func (x *Extractor) parts(sc *bdd.Scope, trans bdd.Node, withFaults bool) []part {
	c := x.c
	m := c.Space.M
	trans = sc.Keep(m.And(trans, c.Space.ValidTrans()))
	// A serial split under a context nothing cancels cannot fail.
	subs, _ := program.SerialEngine(c).Split(context.TODO(), trans)
	for _, sub := range subs {
		// Each slice is used for the caller's whole reconstruction, so it is
		// rooted in the caller's scope.
		sc.Keep(sub)
	}
	var out []part
	for j, sub := range subs {
		if sub != bdd.False {
			out = append(out, part{rel: sub, kind: StepProgram, by: c.Procs[j].Name})
		}
	}
	if rest := m.Diff(trans, m.OrN(subs...)); rest != bdd.False {
		out = append(out, part{rel: sc.Keep(rest), kind: StepProgram})
	}
	if withFaults {
		out = append(out, x.faultParts()...)
	}
	return out
}

// faultParts labels the per-action fault slices.
func (x *Extractor) faultParts() []part {
	c := x.c
	out := make([]part, len(c.FaultParts))
	for i, f := range c.FaultParts {
		name := ""
		if i < len(c.Def.Faults) {
			name = c.Def.Faults[i].Name
		}
		out[i] = part{rel: f, kind: StepFault, by: name}
	}
	return out
}

// forwardLayers runs a breadth-first frontier fixpoint from init under the
// union of the parts, recording one frontier layer per step, and stops as
// soon as the reached set intersects stop (or at the fixpoint). The context
// is checked every layer, so a caller's deadline interrupts a long
// reconstruction even after the main fixpoint already finished.
func (x *Extractor) forwardLayers(ctx context.Context, sc *bdd.Scope, init bdd.Node, parts []part, stop bdd.Node) ([]bdd.Node, error) {
	s := x.c.Space
	m := s.M
	sc.Keep(stop)
	reachedS := sc.Slot(sc.Keep(m.And(init, s.ValidCur())))
	layers := []bdd.Node{reachedS.Node()}
	nextS := sc.Slot(bdd.False)
	for len(layers) < maxTraceSteps {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("witness: extraction interrupted: %w", err)
		}
		if m.And(reachedS.Node(), stop) != bdd.False {
			return layers, nil
		}
		frontier := layers[len(layers)-1]
		nextS.Set(bdd.False)
		for _, p := range parts {
			nextS.Set(m.Or(nextS.Node(), s.Image(frontier, p.rel)))
		}
		next := nextS.Set(m.Diff(nextS.Node(), reachedS.Node()))
		if next == bdd.False {
			return layers, nil
		}
		reachedS.Set(m.Or(reachedS.Node(), next))
		// Every layer is walked back through later; root them all.
		layers = append(layers, sc.Keep(next))
	}
	return layers, nil
}

// walkBack reconstructs a concrete path ending in the given state, which must
// lie in layers[k]: one predecessor per earlier layer, popped off the frontier
// stack. It returns the steps in forward order, labeling each step with the
// first partition (in fixed order) containing its transition.
func (x *Extractor) walkBack(ctx context.Context, layers []bdd.Node, parts []part, k int, state map[string]int) ([]Step, error) {
	s := x.c.Space
	m := s.M
	steps := []Step{{Kind: StepInit, State: cloneState(state)}} // reversed below
	cur := state
	for i := k - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("witness: extraction interrupted: %w", err)
		}
		curBDD := x.stateNode(cur)
		var prev map[string]int
		var via part
		for _, p := range parts {
			pre := m.And(s.Preimage(curBDD, p.rel), layers[i])
			if pre == bdd.False {
				continue
			}
			prev = x.PickState(pre)
			via = p
			break
		}
		if prev == nil {
			return nil, fmt.Errorf("witness: no predecessor in layer %d (broken frontier stack)", i)
		}
		// The step into cur carries the label of the partition used.
		steps[len(steps)-1].Kind = via.kind
		steps[len(steps)-1].By = via.by
		steps = append(steps, Step{Kind: StepInit, State: cloneState(prev)})
		cur = prev
	}
	// Reverse into forward order.
	for l, r := 0, len(steps)-1; l < r; l, r = l+1, r-1 {
		steps[l], steps[r] = steps[r], steps[l]
	}
	return steps, nil
}

// tracePath reconstructs one shortest concrete path from init to target under
// the labeled parts: a frontier-stack BFS followed by backward predecessor
// popping. It returns nil (no error) when target is unreachable.
func (x *Extractor) tracePath(ctx context.Context, sc *bdd.Scope, init bdd.Node, parts []part, target bdd.Node) ([]Step, error) {
	m := x.c.Space.M
	layers, err := x.forwardLayers(ctx, sc, init, parts, target)
	if err != nil {
		return nil, err
	}
	k := -1
	for i, l := range layers {
		if m.And(l, target) != bdd.False {
			k = i
			break
		}
	}
	if k < 0 {
		return nil, nil
	}
	state := x.PickState(m.And(layers[k], target))
	return x.walkBack(ctx, layers, parts, k, state)
}

// BadState extracts a witness for a reachable bad state: a computation
// starting in init that, interleaving trans steps with fault steps, reaches
// a bad state along a shortest path. It returns nil when no bad state is
// reachable (the corresponding check passed).
func (x *Extractor) BadState(ctx context.Context, trans, init bdd.Node) (*Trace, error) {
	sc := x.c.Space.M.Protect()
	defer sc.Release()
	parts := x.parts(sc, trans, true)
	steps, err := x.tracePath(ctx, sc, init, parts, x.c.BadStates)
	if err != nil || steps == nil {
		return nil, err
	}
	return &Trace{Kind: KindSafety, Steps: steps,
		Detail: fmt.Sprintf("reaches a bad state (Sf_bs) after %d step(s)", len(steps)-1)}, nil
}

// BadTransition extracts a witness for a reachable bad transition: a
// computation starting in init that, interleaving trans steps with fault
// steps, reaches a source of a bad transition of the program-or-fault
// relation along a shortest path, followed by the bad step. It returns nil
// when no bad transition is reachable (the corresponding check passed).
func (x *Extractor) BadTransition(ctx context.Context, trans, init bdd.Node) (*Trace, error) {
	c := x.c
	s := c.Space
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	parts := x.parts(sc, trans, true)
	combinedS := sc.Slot(bdd.False)
	for _, p := range parts {
		combinedS.Set(m.Or(combinedS.Node(), p.rel))
	}
	badStep := sc.Keep(m.And(combinedS.Node(), c.BadTrans))
	badSrc := sc.Keep(m.AndExists(badStep, s.ValidTrans(), s.NextCube()))

	steps, err := x.tracePath(ctx, sc, init, parts, badSrc)
	if err != nil || steps == nil {
		return nil, err
	}
	lastBDD := x.stateNode(steps[len(steps)-1].State)
	for _, p := range parts {
		hit := m.And(badStep, m.And(lastBDD, p.rel))
		if hit == bdd.False {
			continue
		}
		nxt := x.PickState(s.Image(hit, s.ValidTrans()))
		steps = append(steps, Step{Kind: p.kind, By: p.by, State: nxt})
		return &Trace{Kind: KindSafety, Steps: steps,
			Detail: fmt.Sprintf("executes a bad transition (Sf_bt) at step %d", len(steps)-1)}, nil
	}
	return nil, fmt.Errorf("witness: bad-transition source has no bad outgoing step (inconsistent relation)")
}

// Deadlock extracts a witness for a reachable deadlock: a computation from
// init (interleaving trans and fault steps) to a state of dead, which the
// caller asserts has no outgoing trans step. It returns nil when no dead
// state is reachable.
func (x *Extractor) Deadlock(ctx context.Context, trans, init, dead bdd.Node) (*Trace, error) {
	sc := x.c.Space.M.Protect()
	defer sc.Release()
	parts := x.parts(sc, trans, true)
	steps, err := x.tracePath(ctx, sc, init, parts, dead)
	if err != nil || steps == nil {
		return nil, err
	}
	tr := &Trace{Kind: KindDeadlock, Steps: steps}
	tr.Detail = fmt.Sprintf("deadlock outside the invariant after %d step(s), %d fault(s)",
		len(steps)-1, tr.Faults())
	return tr, nil
}

// Livelock extracts a witness for a non-recovering cycle: a computation from
// init into the cyclic set (states outside the invariant from which a
// program-only infinite path avoids the invariant forever), extended along
// cyclic program steps until a state repeats. It returns nil when cyclic is
// unreachable.
func (x *Extractor) Livelock(ctx context.Context, trans, init, cyclic bdd.Node) (*Trace, error) {
	s := x.c.Space
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(cyclic) // read on every reconstruction step below
	parts := x.parts(sc, trans, true)
	steps, err := x.tracePath(ctx, sc, init, parts, cyclic)
	if err != nil || steps == nil {
		return nil, err
	}
	// Follow cyclic-to-cyclic program steps until a state repeats. The
	// cyclic set is a greatest fixpoint under exactly that edge relation, so
	// a successor inside the set always exists and the finite set forces a
	// repeat.
	progParts := x.parts(sc, trans, false)
	seen := map[string]int{stateKey(steps[len(steps)-1].State): len(steps) - 1}
	cur := steps[len(steps)-1].State
	for len(steps) < maxTraceSteps {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("witness: extraction interrupted: %w", err)
		}
		curBDD := x.stateNode(cur)
		var nxt map[string]int
		var via part
		for _, p := range progParts {
			img := m.And(s.Image(curBDD, p.rel), cyclic)
			if img == bdd.False {
				continue
			}
			nxt = x.PickState(img)
			via = p
			break
		}
		if nxt == nil {
			return nil, fmt.Errorf("witness: cyclic state has no successor in the cyclic set")
		}
		steps = append(steps, Step{Kind: via.kind, By: via.by, State: nxt})
		cur = nxt
		if at, ok := seen[stateKey(nxt)]; ok {
			tr := &Trace{Kind: KindLivelock, Steps: steps}
			tr.Detail = fmt.Sprintf("cycle outside the invariant: step %d revisits step %d",
				len(steps)-1, at)
			return tr, nil
		}
		seen[stateKey(nxt)] = len(steps) - 1
	}
	return nil, fmt.Errorf("witness: livelock reconstruction exceeded %d steps", maxTraceSteps)
}

// Unrealizable extracts a witness that trans does not decompose into
// per-process realizable sets (Definition 20): a transition outside every
// process's maximal realizable subset, together with the group member whose
// absence from trans betrays it for the write-capable process. It returns
// nil when trans is program-realizable.
func (x *Extractor) Unrealizable(ctx context.Context, trans bdd.Node) (*Trace, error) {
	c := x.c
	s := c.Space
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	d := sc.Keep(m.And(trans, s.ValidTrans()))
	subs, err := program.SerialEngine(c).Split(ctx, d)
	if err != nil {
		return nil, fmt.Errorf("witness: extraction interrupted: %w", err)
	}
	resid := sc.Keep(m.Diff(d, m.OrN(subs...))) // OrN roots the parts
	if resid == bdd.False {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("witness: extraction interrupted: %w", err)
	}
	move := x.pickMove(resid)
	moveBDD, _ := s.Transition(move.From, move.To)
	sc.Keep(moveBDD)
	for _, p := range c.Procs {
		// Only a process that could write this transition can be betrayed by
		// its group; find the member the relation is missing.
		if m.And(moveBDD, p.WriteOK) == bdd.False {
			continue
		}
		missing := m.Diff(p.Group(moveBDD), d)
		if missing == bdd.False {
			continue
		}
		member := x.pickMove(missing)
		return &Trace{
			Kind:    KindUnrealizable,
			Detail:  fmt.Sprintf("process %s cannot realize the transition: a read-restriction group member is absent", p.Name),
			Process: p.Name,
			Move:    &move,
			Member:  &member,
		}, nil
	}
	return &Trace{
		Kind:   KindUnrealizable,
		Detail: "transition respects no process's write restriction",
		Move:   &move,
	}, nil
}

// pickMove selects one concrete transition from a nonempty transition
// predicate, deterministically.
func (x *Extractor) pickMove(rel bdd.Node) Move {
	s := x.c.Space
	m := s.M
	cube := m.PickCube(m.And(rel, s.ValidTrans()))
	from := make(map[string]int, len(s.Vars))
	to := make(map[string]int, len(s.Vars))
	for _, v := range s.Vars {
		from[v.Name] = v.DecodeCube(cube)
		to[v.Name] = v.DecodeNextCube(cube)
	}
	return Move{From: from, To: to}
}

// Demonstration-size bounds. A recovery demonstration is pedagogical: a
// short excursion and a short convergence tail explain the repair as well as
// a hundred-step one, while the full rank fixpoint over a 10⁸-state span can
// dwarf the synthesis it explains. Drift is capped at maxDemoDrift extra
// fault layers, and rank layers are grown lazily — only until the excursion
// is covered or maxDemoRank layers exist (growing further only when the
// excursion has no ranked state yet). Both bounds are fixed constants, so
// extraction stays deterministic.
const (
	maxDemoDrift = 4
	maxDemoRank  = 12
)

// rankTable is the lazily grown backward rank decomposition toward the
// invariant: ranks[d] holds the states whose shortest program path to the
// invariant has length d (within the span). It depends only on
// (trans, inv, span), so RecoveryDemos shares one table across fault
// indices; full marks the fixpoint.
type rankTable struct {
	sc     *bdd.Scope // roots the layers for the table's lifetime
	ranks  []bdd.Node
	ranked bdd.Node
	full   bool
}

// extendRanks grows rt by one layer; it reports false at the fixpoint.
func (x *Extractor) extendRanks(rt *rankTable, progParts []part, span bdd.Node) bool {
	s := x.c.Space
	m := s.M
	if rt.full {
		return false
	}
	next := bdd.False
	for _, p := range progParts {
		next = m.Or(next, s.Preimage(rt.ranks[len(rt.ranks)-1], p.rel))
	}
	next = m.And(m.Diff(next, rt.ranked), span)
	if next == bdd.False {
		rt.full = true
		return false
	}
	rt.ranks = append(rt.ranks, rt.sc.Keep(next))
	rt.ranked = rt.sc.Keep(m.Or(rt.ranked, next))
	return true
}

// recovery extracts a recovery demonstration for a repaired program: a
// computation that starts inside inv, leaves it via the fault action with
// the given index (invariant closure guarantees only faults can leave),
// optionally drifts further on subsequent faults, and then converges back to
// inv via program steps of trans — greedily following the breadth-first rank
// toward the invariant, so convergence is structural, not lucky. It returns
// nil when fault faultIndex cannot leave the invariant. RecoveryDemos builds
// what every fault shares once and passes it in: the labeled program parts
// of trans, the fault parts, inv and span (both within ValidCur, and rooted)
// and the rank table, which recovery grows as needed.
func (x *Extractor) recovery(ctx context.Context, progParts, faultParts []part, inv, span bdd.Node, faultIndex int, rt *rankTable) (*Trace, error) {
	c := x.c
	s := c.Space
	m := s.M
	sc := m.Protect()
	defer sc.Release()

	// Departure: the chosen fault's one-step exits from the invariant, then
	// further fault drift within the span, layer by layer (capped — see
	// maxDemoDrift).
	entry := sc.Keep(m.AndDiff(s.Image(inv, c.FaultParts[faultIndex]), span, inv))
	if entry == bdd.False {
		// The fault cannot leave the invariant. If it is enabled there at
		// all, that containment is itself the strongest demonstration: the
		// excursion has length zero (see containedDemo). Otherwise the fault
		// contributes no witness.
		return x.containedDemo(ctx, sc, progParts, inv, faultIndex)
	}
	outLayers := []bdd.Node{entry}
	outReachedS := sc.Slot(entry)
	for len(outLayers) <= maxDemoDrift {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("witness: extraction interrupted: %w", err)
		}
		frontier := outLayers[len(outLayers)-1]
		next := bdd.False
		for _, p := range faultParts {
			next = m.Or(next, s.Image(frontier, p.rel))
		}
		next = m.AndDiff(m.Diff(next, outReachedS.Node()), span, inv)
		if next == bdd.False {
			break
		}
		outLayers = append(outLayers, sc.Keep(next))
		outReachedS.Set(m.Or(outReachedS.Node(), next))
	}
	outReached := outReachedS.Node()

	// Grow the rank layers until the excursion is fully covered or
	// maxDemoRank layers exist — and, past the cap, only until the excursion
	// has at least one ranked state (guaranteed to terminate for a verified
	// repair: every span state has finite rank).
	if rt.ranks == nil {
		rt.ranks, rt.ranked = []bdd.Node{rt.sc.Keep(inv)}, rt.sc.Keep(inv)
	}
	for !rt.full {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("witness: extraction interrupted: %w", err)
		}
		covered := m.Diff(outReached, rt.ranked) == bdd.False
		if covered {
			break
		}
		if len(rt.ranks) > maxDemoRank && m.And(outReached, rt.ranked) != bdd.False {
			break
		}
		x.extendRanks(rt, progParts, span)
	}

	// Target: among the fault-reachable excursion states, the one with the
	// deepest rank not exceeding the cap — the most instructive bounded
	// demonstration; past-cap ranks are a fallback for excursions whose every
	// state recovers slowly.
	ranks := rt.ranks
	target, targetRank := bdd.False, 0
	top := len(ranks) - 1
	if top > maxDemoRank {
		top = maxDemoRank
	}
	for d := top; d >= 1; d-- {
		if hit := m.And(outReached, ranks[d]); hit != bdd.False {
			target, targetRank = hit, d
			break
		}
	}
	if target == bdd.False {
		for d := maxDemoRank + 1; d < len(ranks); d++ {
			if hit := m.And(outReached, ranks[d]); hit != bdd.False {
				target, targetRank = hit, d
				break
			}
		}
	}
	if target == bdd.False {
		// Every state this fault can reach converges only through states the
		// rank layers do not cover (cannot happen for a verified repair).
		return nil, fmt.Errorf("witness: fault %d reaches no ranked excursion state", faultIndex)
	}
	sc.Keep(target)

	// Reconstruct the fault prefix through the excursion layers.
	k := -1
	for i, l := range outLayers {
		if m.And(l, target) != bdd.False {
			k = i
			break
		}
	}
	state := x.PickState(m.And(outLayers[k], target))
	steps, err := x.walkBack(ctx, outLayers, faultParts, k, state)
	if err != nil {
		return nil, err
	}
	// Prepend the invariant start state via the chosen fault action.
	firstBDD := x.stateNode(steps[0].State)
	start := x.PickState(m.And(s.Preimage(firstBDD, c.FaultParts[faultIndex]), inv))
	if start == nil {
		return nil, fmt.Errorf("witness: lost the invariant predecessor of the fault entry")
	}
	name := ""
	if faultIndex < len(c.Def.Faults) {
		name = c.Def.Faults[faultIndex].Name
	}
	steps[0].Kind, steps[0].By = StepFault, name
	steps = append([]Step{{Kind: StepInit, State: start}}, steps...)

	// Convergence: greedy rank descent — from a rank-d state, step to the
	// lowest-ranked program successor. Some successor always sits at rank
	// d-1 (ranks are shortest-path layers), so scanning below the current
	// rank suffices and the rank strictly decreases: the walk reaches the
	// invariant in at most targetRank steps.
	cur, curRank := steps[len(steps)-1].State, targetRank
	curS := sc.Slot(bdd.False)
	for {
		curBDD := curS.Set(x.stateNode(cur))
		if m.And(curBDD, inv) != bdd.False {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("witness: extraction interrupted: %w", err)
		}
		var nxt map[string]int
		var via part
	descend:
		for d := 0; d < curRank && d < len(ranks); d++ {
			for _, p := range progParts {
				img := m.And(s.Image(curBDD, p.rel), ranks[d])
				if img == bdd.False {
					continue
				}
				nxt = x.PickState(img)
				via = p
				curRank = d
				break descend
			}
		}
		if nxt == nil {
			return nil, fmt.Errorf("witness: excursion state has no ranked program successor")
		}
		steps = append(steps, Step{Kind: via.kind, By: via.by, State: nxt})
		cur = nxt
	}

	tr := &Trace{Kind: KindRecovery, Steps: steps}
	tr.Detail = fmt.Sprintf("leaves the invariant via %d fault(s) and recovers in %d program step(s)",
		tr.Faults(), len(steps)-1-tr.Faults())
	return tr, nil
}

// containedDemo demonstrates a fault that is fully masked inside the
// invariant (the fault-span adds no states for it): one fault step from an
// invariant state to an invariant state, followed by a few program steps
// showing the computation proceeding undisturbed. The closure checks
// guarantee the whole trace stays inside the invariant — an excursion of
// length zero, which is the strongest form of recovery.
func (x *Extractor) containedDemo(ctx context.Context, sc *bdd.Scope, progParts []part, inv bdd.Node, faultIndex int) (*Trace, error) {
	c := x.c
	s := c.Space
	m := s.M
	relS := sc.Slot(m.AndN(c.FaultParts[faultIndex], inv, s.Prime(inv), s.ValidTrans()))
	if relS.Node() == bdd.False {
		return nil, nil // the fault is not enabled anywhere in the invariant
	}
	// Prefer a fault step that visibly changes the state; some fault
	// relations include stutters, which demonstrate nothing.
	if moving := m.Diff(relS.Node(), s.Identity()); moving != bdd.False {
		relS.Set(moving)
	}
	mv := x.pickMove(relS.Node())
	name := ""
	if faultIndex < len(c.Def.Faults) {
		name = c.Def.Faults[faultIndex].Name
	}
	steps := []Step{
		{Kind: StepInit, State: mv.From},
		{Kind: StepFault, By: name, State: mv.To},
	}
	after := mv.To
	// A short program tail: the computation continues inside the invariant.
	const maxTail = 4
	cur := after
	for t := 0; t < maxTail; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("witness: extraction interrupted: %w", err)
		}
		curBDD := x.stateNode(cur)
		var nxt map[string]int
		var via part
		for _, p := range progParts {
			img := s.Image(curBDD, p.rel)
			if img == bdd.False {
				continue
			}
			nxt = x.PickState(img)
			via = p
			break
		}
		if nxt == nil {
			break // the computation rests; a legal finite maximal computation
		}
		steps = append(steps, Step{Kind: via.kind, By: via.by, State: nxt})
		cur = nxt
	}
	tr := &Trace{Kind: KindRecovery, Steps: steps}
	tr.Detail = fmt.Sprintf("the fault is masked in place: the computation never leaves the invariant (%d program step(s) shown)",
		len(steps)-2)
	return tr, nil
}

// RecoveryDemos extracts up to n recovery demonstrations for a repaired
// program, one per fault action in declaration order (each action has one
// canonical demonstration, so asking for more than the model declares yields
// the declared number). Fault actions that cannot leave the invariant are
// skipped; extraction failures on one action skip that action unless the
// context is done, in which case the error propagates.
func RecoveryDemos(ctx context.Context, c *program.Compiled, trans, inv, span bdd.Node, n int) ([]*Trace, error) {
	if n <= 0 {
		return nil, nil
	}
	x := New(c)
	s := c.Space
	m := s.M
	var out []*Trace
	// Everything below depends only on (trans, inv, span), so it is built
	// once and shared by every fault: the program and fault parts, and one
	// rank table, whose per-fault target selection reads a fixed prefix of
	// its layers, so sharing changes no trace. Their scope outlives the
	// per-fault extraction scopes so the shared nodes stay rooted.
	sc := m.Protect()
	defer sc.Release()
	inv = sc.Keep(m.And(inv, s.ValidCur()))
	span = sc.Keep(m.And(span, s.ValidCur()))
	progParts := x.parts(sc, trans, false)
	faultParts := x.faultParts()
	rt := &rankTable{sc: sc}
	for i := 0; i < len(c.FaultParts) && len(out) < n; i++ {
		tr, err := x.recovery(ctx, progParts, faultParts, inv, span, i, rt)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			continue
		}
		if tr != nil {
			out = append(out, tr)
		}
	}
	return out, nil
}

// stateKey renders a state as a canonical map key (declaration order).
func stateKey(state map[string]int) string {
	// Variables are few; a simple deterministic rendering suffices.
	names := make([]string, 0, len(state))
	for n := range state {
		names = append(names, n)
	}
	sortStrings(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("%s=%d;", n, state[n])
	}
	return out
}

func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
