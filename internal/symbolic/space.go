// Package symbolic provides a finite-domain state space on top of the BDD
// engine: named variables with arbitrary finite domains, state and transition
// predicates, priming (current/next renaming), image and preimage operators,
// and symbolic reachability.
//
// Encoding: each finite-domain variable gets ceil(log2(domain)) boolean bits.
// Current-state and next-state bits are interleaved globally (cur bit at an
// even level, its next twin immediately after), which keeps transition
// relations small and makes the prime/unprime renaming a neighbour swap.
package symbolic

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bdd"
)

// VarSpec declares one finite-domain variable of a Space.
type VarSpec struct {
	Name   string
	Domain int // number of values; the variable ranges over 0..Domain-1
}

// Var is a finite-domain variable inside a Space.
type Var struct {
	Name   string
	Domain int
	Index  int // position in Space.Vars

	bits       int
	curLevels  []int // BDD variable ids of current-state bits (LSB first)
	nextLevels []int // BDD variable ids of next-state bits (LSB first)
	space      *Space
}

// Space is a symbolic state space: a set of finite-domain variables encoded
// into a shared BDD manager.
type Space struct {
	M    *bdd.Manager
	Vars []*Var

	byName map[string]*Var

	curCube  bdd.Node // cube of all current-state bits
	nextCube bdd.Node // cube of all next-state bits
	swap     *bdd.Permutation

	validCur   bdd.Node // excludes unused bit patterns of non-power-of-2 domains
	validNext  bdd.Node
	validTrans bdd.Node // validCur ∧ validNext
	identity   bdd.Node // all variables unchanged (over valid patterns)

	totalBits int
}

// New builds a Space with the given variables. The declaration order defines
// the BDD variable order (earlier variables higher in the order), which for
// the chain and agreement models of the paper gives compact BDDs.
func New(specs []VarSpec) (*Space, error) {
	s := &Space{M: bdd.New(), byName: make(map[string]*Var)}
	for _, spec := range specs {
		if spec.Domain < 2 {
			return nil, fmt.Errorf("symbolic: variable %q has domain %d; need at least 2", spec.Name, spec.Domain)
		}
		if _, dup := s.byName[spec.Name]; dup {
			return nil, fmt.Errorf("symbolic: duplicate variable %q", spec.Name)
		}
		v := &Var{
			Name:   spec.Name,
			Domain: spec.Domain,
			Index:  len(s.Vars),
			bits:   bitsFor(spec.Domain),
			space:  s,
		}
		for b := 0; b < v.bits; b++ {
			cur := s.M.NewVar(fmt.Sprintf("%s.%d", spec.Name, b))
			next := s.M.NewVar(fmt.Sprintf("%s.%d'", spec.Name, b))
			// Record stable variable ids, not positions: the order under the
			// ids can move once dynamic reordering kicks in.
			v.curLevels = append(v.curLevels, s.M.VarOf(cur))
			v.nextLevels = append(v.nextLevels, s.M.VarOf(next))
		}
		s.totalBits += v.bits
		s.Vars = append(s.Vars, v)
		s.byName[spec.Name] = v
	}
	s.finish()
	return s, nil
}

// MustNew is New but panics on error; convenient in tests and examples.
func MustNew(specs []VarSpec) *Space {
	s, err := New(specs)
	if err != nil {
		panic(err)
	}
	return s
}

func bitsFor(domain int) int {
	b := 0
	for 1<<b < domain {
		b++
	}
	return b
}

func (s *Space) finish() {
	m := s.M
	var curLevels, nextLevels []int
	mapping := make([]int, m.NumVars())
	for i := range mapping {
		mapping[i] = i
	}
	for _, v := range s.Vars {
		curLevels = append(curLevels, v.curLevels...)
		nextLevels = append(nextLevels, v.nextLevels...)
		for b := range v.curLevels {
			mapping[v.curLevels[b]] = v.nextLevels[b]
			mapping[v.nextLevels[b]] = v.curLevels[b]
		}
	}
	// The Space's predicates live as long as it does; root them for good.
	s.validCur = m.Ref(s.AndEach(func(v *Var) bdd.Node { return v.validRange(v.curLevels) }))
	s.validNext = m.Ref(s.AndEach(func(v *Var) bdd.Node { return v.validRange(v.nextLevels) }))
	s.validTrans = m.Ref(m.And(s.validCur, s.validNext))
	s.identity = m.Ref(s.AndEach((*Var).Unchanged))
	s.curCube = m.Ref(m.Cube(curLevels))
	s.nextCube = m.Ref(m.Cube(nextLevels))
	s.swap = m.NewPermutation(mapping)
}

// AndEach returns the conjunction of pred(v) over the space's variables,
// folded from the variable deepest in the current order upward; pred
// returns True for a variable the conjunction skips. Each step conjoins a
// predicate over variables above everything the accumulator reads, which
// stacks the predicate's nodes on top of the accumulator and copies none
// of it. The top-down fold re-copies the whole accumulator at every step,
// and nothing collects those copies before a job ends (DESIGN.md §14,
// "Building predicates").
func (s *Space) AndEach(pred func(v *Var) bdd.Node) bdd.Node {
	m := s.M
	level := make([]int, m.NumVars())
	for l, id := range m.Order() {
		level[id] = l
	}
	// A variable's place in the order is that of its highest bit.
	top := make([]int, len(s.Vars))
	for _, v := range s.Vars {
		top[v.Index] = len(level)
		for b := range v.curLevels {
			top[v.Index] = min(top[v.Index], level[v.curLevels[b]], level[v.nextLevels[b]])
		}
	}
	vars := append([]*Var(nil), s.Vars...)
	sort.Slice(vars, func(i, j int) bool { return top[vars[i].Index] > top[vars[j].Index] })
	acc := m.NewRooted(bdd.True)
	defer acc.Release()
	for _, v := range vars {
		acc.Set(m.And(pred(v), acc.Node()))
	}
	return acc.Node()
}

// validRange builds the constraint value < Domain over the given bit levels.
func (v *Var) validRange(levels []int) bdd.Node {
	m := v.space.M
	if v.Domain == 1<<v.bits {
		return bdd.True
	}
	out := bdd.False
	for val := 0; val < v.Domain; val++ {
		out = m.Or(out, v.eqConstOn(levels, val))
	}
	return out
}

// VarByName returns the variable with the given name, or nil.
func (s *Space) VarByName(name string) *Var { return s.byName[name] }

// TotalBits returns the number of boolean state bits (excluding next copies).
func (s *Space) TotalBits() int { return s.totalBits }

// CurCube returns the cube of all current-state bits.
func (s *Space) CurCube() bdd.Node { return s.curCube }

// NextCube returns the cube of all next-state bits.
func (s *Space) NextCube() bdd.Node { return s.nextCube }

// ValidCur is the predicate excluding unused encodings of current variables.
func (s *Space) ValidCur() bdd.Node { return s.validCur }

// ValidNext is the predicate excluding unused encodings of next variables.
func (s *Space) ValidNext() bdd.Node { return s.validNext }

// ValidTrans is the conjunction ValidCur ∧ ValidNext: the universe of
// well-formed transitions.
func (s *Space) ValidTrans() bdd.Node { return s.validTrans }

// Identity is the transition predicate that leaves every variable unchanged.
func (s *Space) Identity() bdd.Node { return s.identity }

// Prime renames current-state variables to next-state variables (and vice
// versa — the renaming is the involutive neighbour swap).
func (s *Space) Prime(f bdd.Node) bdd.Node { return s.M.Replace(f, s.swap) }

// Image returns the set of states reachable in one step from the given state
// set via the transition relation: (∃cur. states ∧ trans) renamed back to
// current-state bits, built directly over them (bdd.Manager.RelNext).
func (s *Space) Image(states, trans bdd.Node) bdd.Node {
	return s.M.RelNext(states, trans, s.curCube, s.swap)
}

// Preimage returns the states that can reach the given state set in one step
// via the transition relation: ∃next. trans ∧ states′, with states′ never
// built (bdd.Manager.RelPrev).
func (s *Space) Preimage(states, trans bdd.Node) bdd.Node {
	return s.AndPrimeExists(trans, states, s.nextCube)
}

// AndPrimeExists returns ∃cube. rel ∧ states′ for a state set states,
// without building states′: Preimage with the caller's choice of quantified
// bits.
func (s *Space) AndPrimeExists(rel, states, cube bdd.Node) bdd.Node {
	return s.M.RelPrev(rel, states, cube, s.swap)
}

// Reachable computes the least fixpoint of states reachable from init via
// trans (including init itself).
func (s *Space) Reachable(init, trans bdd.Node) bdd.Node {
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(trans)
	reached := sc.Slot(m.And(init, s.validCur))
	frontier := sc.Slot(reached.Node())
	for frontier.Node() != bdd.False {
		next := m.Diff(s.Image(frontier.Node(), trans), reached.Node())
		reached.Set(m.Or(reached.Node(), next))
		frontier.Set(next)
	}
	return reached.Node()
}

// ReachableParts computes the states reachable from init under the union of
// the given transition-relation partitions, using disjunctive partitioning
// with chaining: each partition's image is applied to its own fixpoint
// before moving to the next, and the outer loop repeats until no partition
// adds states. For asynchronous systems (one process or fault acting at a
// time) this keeps intermediate sets near product form and avoids the
// exponential counting sets a breadth-first frontier builds.
func (s *Space) ReachableParts(init bdd.Node, parts []bdd.Node) bdd.Node {
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	for _, p := range parts {
		sc.Keep(p)
	}
	reached := sc.Slot(m.And(init, s.validCur))
	for {
		changed := false
		for _, p := range parts {
			if p == bdd.False {
				continue
			}
			for {
				img := m.Diff(s.Image(reached.Node(), p), reached.Node())
				if img == bdd.False {
					break
				}
				reached.Set(m.Or(reached.Node(), img))
				changed = true
			}
		}
		if !changed {
			return reached.Node()
		}
	}
}

// BackwardReachableParts is the partitioned-with-chaining form of
// BackwardReachable.
func (s *Space) BackwardReachableParts(target bdd.Node, parts []bdd.Node) bdd.Node {
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	for _, p := range parts {
		sc.Keep(p)
	}
	reached := sc.Slot(m.And(target, s.validCur))
	frontier := sc.Slot(bdd.False)
	for {
		changed := false
		for _, p := range parts {
			if p == bdd.False {
				continue
			}
			// Chain with a frontier: after the first preimage of the full
			// set, only the newly added states need another preimage.
			// (The forward fixpoint above deliberately images the full
			// reached set instead — there the frontier BDDs grow larger
			// than the set itself on these models.)
			frontier.Set(reached.Node())
			for {
				pre := m.Diff(s.Preimage(frontier.Node(), p), reached.Node())
				if pre == bdd.False {
					break
				}
				reached.Set(m.Or(reached.Node(), pre))
				frontier.Set(pre)
				changed = true
			}
		}
		if !changed {
			return reached.Node()
		}
	}
}

// BackwardReachable computes the states that can reach target via trans in
// zero or more steps.
func (s *Space) BackwardReachable(target, trans bdd.Node) bdd.Node {
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(trans)
	reached := sc.Slot(m.And(target, s.validCur))
	frontier := sc.Slot(reached.Node())
	for frontier.Node() != bdd.False {
		prev := m.Diff(s.Preimage(frontier.Node(), trans), reached.Node())
		reached.Set(m.Or(reached.Node(), prev))
		frontier.Set(prev)
	}
	return reached.Node()
}

// CountStates returns the number of states in a state predicate (a function
// of current-state bits only). It panics if f is not a Node of this space's
// manager (a Node from another manager would silently count an unrelated
// function, or crash deep inside the apply layer).
func (s *Space) CountStates(f bdd.Node) float64 {
	s.M.CheckNode(f)
	// SatCount ranges over every manager bit; divide out the unconstrained
	// next-state bits.
	return s.M.SatCount(s.M.And(f, s.validCur)) / math.Pow(2, float64(s.totalBits))
}

// CountTransitions returns the number of (s0, s1) pairs in a transition
// predicate. Like CountStates it panics on a Node from a different manager.
func (s *Space) CountTransitions(f bdd.Node) float64 {
	s.M.CheckNode(f)
	return s.M.SatCount(s.M.And(f, s.ValidTrans()))
}

// State builds the state predicate fixing each named variable to a value;
// unnamed variables are unconstrained.
func (s *Space) State(values map[string]int) (bdd.Node, error) {
	out := s.validCur
	for name, val := range values {
		v := s.byName[name]
		if v == nil {
			return bdd.False, fmt.Errorf("symbolic: unknown variable %q", name)
		}
		if val < 0 || val >= v.Domain {
			return bdd.False, fmt.Errorf("symbolic: value %d out of domain of %q", val, name)
		}
		out = s.M.And(out, v.EqConst(val))
	}
	return out, nil
}

// Transition builds the transition predicate for a single concrete (from,
// to) state pair. Both maps must assign every variable.
func (s *Space) Transition(from, to map[string]int) (bdd.Node, error) {
	if len(from) != len(s.Vars) || len(to) != len(s.Vars) {
		return bdd.False, fmt.Errorf("symbolic: Transition requires total assignments (%d vars)", len(s.Vars))
	}
	src, err := s.State(from)
	if err != nil {
		return bdd.False, err
	}
	dst, err := s.State(to)
	if err != nil {
		return bdd.False, err
	}
	return s.M.And(src, s.Prime(dst)), nil
}

// --- Var predicates --------------------------------------------------------

func (v *Var) eqConstOn(levels []int, val int) bdd.Node {
	m := v.space.M
	out := bdd.True
	for b, lvl := range levels {
		if val&(1<<b) != 0 {
			out = m.And(out, m.Var(lvl))
		} else {
			out = m.And(out, m.NVar(lvl))
		}
	}
	return out
}

// EqConst returns the predicate v = val over current-state bits.
func (v *Var) EqConst(val int) bdd.Node {
	if val < 0 || val >= v.Domain {
		panic(fmt.Sprintf("symbolic: value %d out of domain [0,%d) of %s", val, v.Domain, v.Name))
	}
	return v.eqConstOn(v.curLevels, val)
}

// NextEqConst returns the predicate v' = val over next-state bits.
func (v *Var) NextEqConst(val int) bdd.Node {
	if val < 0 || val >= v.Domain {
		panic(fmt.Sprintf("symbolic: value %d out of domain [0,%d) of %s", val, v.Domain, v.Name))
	}
	return v.eqConstOn(v.nextLevels, val)
}

// Unchanged returns the transition predicate v' = v.
func (v *Var) Unchanged() bdd.Node {
	m := v.space.M
	out := bdd.True
	for b := range v.curLevels {
		out = m.And(out, m.Iff(m.Var(v.curLevels[b]), m.Var(v.nextLevels[b])))
	}
	return out
}

// Eq returns the state predicate v = w (over current bits of both).
func (v *Var) Eq(w *Var) bdd.Node {
	m := v.space.M
	if v.bits == w.bits && v.Domain == w.Domain {
		out := bdd.True
		for b := range v.curLevels {
			out = m.And(out, m.Iff(m.Var(v.curLevels[b]), m.Var(w.curLevels[b])))
		}
		return out
	}
	// Value-wise comparison for mismatched encodings.
	out := bdd.False
	n := v.Domain
	if w.Domain < n {
		n = w.Domain
	}
	for val := 0; val < n; val++ {
		out = m.Or(out, m.And(v.EqConst(val), w.EqConst(val)))
	}
	return out
}

// NextEq returns the transition predicate v' = w (next of v equals current
// of w) — the symbolic form of the assignment v := w.
func (v *Var) NextEq(w *Var) bdd.Node {
	m := v.space.M
	if v.bits == w.bits && v.Domain == w.Domain {
		out := bdd.True
		for b := range v.curLevels {
			out = m.And(out, m.Iff(m.Var(v.nextLevels[b]), m.Var(w.curLevels[b])))
		}
		return out
	}
	out := bdd.False
	n := v.Domain
	if w.Domain < n {
		n = w.Domain
	}
	for val := 0; val < n; val++ {
		out = m.Or(out, m.And(v.NextEqConst(val), w.EqConst(val)))
	}
	return out
}

// CurLevels returns the BDD variable ids of the variable's current-state
// bits. (Ids, not order positions: they are stable under reordering.)
func (v *Var) CurLevels() []int { return append([]int(nil), v.curLevels...) }

// NextLevels returns the BDD variable ids of the variable's next-state bits.
func (v *Var) NextLevels() []int { return append([]int(nil), v.nextLevels...) }

// DecodeCube extracts this variable's current value from an AllSat cube,
// treating don't-care bits as 0.
func (v *Var) DecodeCube(cube []int8) int {
	val := 0
	for b, lvl := range v.curLevels {
		if cube[lvl] == 1 {
			val |= 1 << b
		}
	}
	return val
}

// DecodeNextCube extracts this variable's next value from an AllSat cube.
func (v *Var) DecodeNextCube(cube []int8) int {
	val := 0
	for b, lvl := range v.nextLevels {
		if cube[lvl] == 1 {
			val |= 1 << b
		}
	}
	return val
}
