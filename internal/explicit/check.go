package explicit

import "repro/internal/program"

// Verdict is the explicit-state outcome of one check of the symbolic
// verifier, under the same name (verify.Check.Name).
type Verdict struct {
	Name    string
	OK      bool
	Warning bool
	// Depth is, for a failed reachability check, the number of steps of a
	// shortest computation from the invariant that violates it: one that
	// leaves the fault-span, reaches a bad state, or ends with a bad
	// transition. It is zero otherwise.
	Depth int
}

// CheckMasking checks trans against masking fault-tolerance from invariant
// with fault-span span (Definition 15), the problem statement's conditions
// (Section II) and realizability (Definitions 19 and 20), with plain graph
// algorithms. It returns one verdict per check of verify.Result, in the
// verifier's order, each computed over the relation the verifier uses for
// that check: the union of each process's maximal realizable subset of trans
// for reachability, livelock and decomposition, and trans itself for the
// closure and deadlock checks. Leads-to properties are not checked, and a
// process's realizability verdict is never emitted: the verifier reports it
// only when it fails, and a maximal realizable subset is realizable by
// construction.
func (sys *System) CheckMasking(trans map[Trans]bool, invariant, span map[State]bool) []Verdict {
	var out []Verdict
	add := func(name string, ok bool) { out = append(out, Verdict{Name: name, OK: ok}) }
	// reached adds a reachability check, given the length of a shortest
	// violating computation or -1 for none.
	reached := func(name string, depth int) {
		out = append(out, Verdict{Name: name, OK: depth < 0, Depth: max(depth, 0)})
	}

	// Problem-statement conditions.
	orig := sys.AllProg()
	add("invariant nonempty", len(invariant) > 0)
	add("invariant subset of original", subset(invariant, sys.Invariant))
	add("no new behavior inside invariant", !anyTrans(trans, func(t Trans) bool {
		return invariant[t.From] && invariant[t.To] && !orig[t]
	}))

	// Closure.
	add("invariant closed in program", !anyTrans(trans, func(t Trans) bool {
		return invariant[t.From] && !invariant[t.To]
	}))
	add("invariant inside fault-span", subset(invariant, span))
	leaves := func(t Trans) bool { return span[t.From] && !span[t.To] }
	add("fault-span closed in program∪fault", !anyTrans(trans, leaves) && !anyTrans(sys.Fault, leaves))

	// Safety under faults, over the realizable part of the program.
	realizable := make(map[Trans]bool, len(trans))
	for _, p := range sys.C.Procs {
		for t := range sys.maxRealizable(p, trans) {
			realizable[t] = true
		}
	}
	dist := sys.Distances(invariant, realizable, sys.Fault)
	escape, badState, badTrans := -1, -1, -1
	for s, d := range dist {
		if !span[s] {
			escape = shorter(escape, d)
		}
		if sys.BadStates[s] {
			badState = shorter(badState, d)
		}
	}
	for _, set := range []map[Trans]bool{trans, sys.Fault} {
		for t := range set {
			if d, ok := dist[t.From]; ok && sys.BadTrans(t) {
				badTrans = shorter(badTrans, d+1)
			}
		}
	}
	reached("reachable within fault-span", escape)
	reached("no reachable bad state", badState)
	reached("no reachable bad transition", badTrans)

	// Recovery: outside the invariant (within the span) no state may be
	// stuck and no program path may stay forever.
	moves := sources(trans)
	outside := make(map[State]bool)
	for s := range span {
		if !invariant[s] {
			outside[s] = true
		}
	}
	add("no deadlock outside invariant", !anyState(outside, func(s State) bool { return !moves[s] }))
	add("no livelock outside invariant", len(cyclicCore(realizable, outside)) == 0)
	// Invariant states that rest now but moved in the original program.
	origMoves := sources(orig)
	out = append(out, Verdict{
		Name: "no new deadlock inside invariant",
		OK: !anyState(invariant, func(s State) bool {
			return !moves[s] && origMoves[s]
		}),
		Warning: true,
	})

	// Realizability.
	add("transitions decompose into processes", len(realizable) == len(trans))
	return out
}

// maxRealizable returns process p's maximal realizable subset of trans: its
// write-legal transitions whose whole group (Section III-B) lies in trans.
// Group members agree on the readable variables before and after, and since
// W ⊆ R every write-legal transition leaves the unreadable variables
// unchanged; so, keyed by its endpoints' readable projections, a group is
// complete exactly when trans holds as many write-legal members under its key
// as the unreadable domains have value combinations.
func (sys *System) maxRealizable(p *program.CompiledProc, trans map[Trans]bool) map[Trans]bool {
	_, unread := sys.readIdx(p)
	size := 1
	for _, i := range unread {
		size *= sys.radix[i]
	}
	project := func(s State) State {
		vals := sys.Values(s)
		for _, i := range unread {
			vals[i] = 0
		}
		return sys.Encode(vals)
	}
	key := func(t Trans) Trans { return Trans{project(t.From), project(t.To)} }
	members := make(map[Trans]int)
	var legal []Trans
	for t := range trans {
		if sys.WriteLegal(p, t) {
			members[key(t)]++
			legal = append(legal, t)
		}
	}
	out := make(map[Trans]bool)
	for _, t := range legal {
		if members[key(t)] == size {
			out[t] = true
		}
	}
	return out
}

// cyclicCore returns the states of outside from which some path of rel stays
// in outside forever: the greatest fixpoint Z = outside ∩ pre(Z), computed by
// peeling the states whose successors within the remaining set run out.
func cyclicCore(rel map[Trans]bool, outside map[State]bool) map[State]bool {
	succs := make(map[State]int)
	preds := make(map[State][]State)
	for t := range rel {
		if outside[t.From] && outside[t.To] {
			succs[t.From]++
			preds[t.To] = append(preds[t.To], t.From)
		}
	}
	core := make(map[State]bool, len(outside))
	var peel []State
	for s := range outside {
		core[s] = true
		if succs[s] == 0 {
			peel = append(peel, s)
		}
	}
	for len(peel) > 0 {
		s := peel[len(peel)-1]
		peel = peel[:len(peel)-1]
		delete(core, s)
		for _, p := range preds[s] {
			if succs[p]--; succs[p] == 0 {
				peel = append(peel, p)
			}
		}
	}
	return core
}

// sources returns the states with an outgoing transition in set.
func sources(set map[Trans]bool) map[State]bool {
	out := make(map[State]bool)
	for t := range set {
		out[t.From] = true
	}
	return out
}

// shorter returns the smaller of two distances, -1 standing for none.
func shorter(a, b int) int {
	if a < 0 || b < a {
		return b
	}
	return a
}

func subset(a, b map[State]bool) bool {
	return !anyState(a, func(s State) bool { return !b[s] })
}

func anyTrans(set map[Trans]bool, pred func(Trans) bool) bool {
	for t := range set {
		if pred(t) {
			return true
		}
	}
	return false
}

func anyState(set map[State]bool, pred func(State) bool) bool {
	for s := range set {
		if pred(s) {
			return true
		}
	}
	return false
}
