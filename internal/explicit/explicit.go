// Package explicit is an enumerative (explicit-state) mirror of the symbolic
// engine. It materializes the state space of a compiled program as a graph,
// implements the read-restriction group computation and the *literal*
// Algorithm 2 of the paper — one transition picked per iteration, with the
// ExpandGroup optimization — and checks masking fault-tolerance and
// realizability with plain graph algorithms, one verdict per check of the
// symbolic verifier.
//
// Its purpose is validation: tests assert that the explicit algorithms agree
// with the symbolic ones on small instances, so the symbolic closed forms
// (DESIGN.md §4) are cross-checked against the paper's pseudocode, and the
// verifier is cross-checked check by check (DESIGN.md §16).
package explicit

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/program"
)

// State is an explicit state: the index obtained by mixed-radix encoding of
// the variable values (first declared variable is the least significant
// digit).
type State int

// Trans is one explicit transition.
type Trans struct {
	From, To State
}

// System is the enumerated form of a compiled program.
type System struct {
	C *program.Compiled

	NumStates int
	radix     []int // domain sizes in declaration order
	// cur[i] and next[i] are variable i's current- and next-state BDD
	// variables, least significant bit first.
	cur, next [][]int

	// Proc[j] holds process j's transitions; Fault holds fault transitions.
	Proc  []map[Trans]bool
	Fault map[Trans]bool

	Invariant map[State]bool
	BadStates map[State]bool
}

// MaxStates bounds enumeration; FromCompiled fails beyond it.
const MaxStates = 1 << 22

// FromCompiled enumerates the compiled program into an explicit System.
func FromCompiled(c *program.Compiled) (*System, error) {
	total := 1
	radix := make([]int, len(c.Space.Vars))
	for i, v := range c.Space.Vars {
		radix[i] = v.Domain
		if total > MaxStates/v.Domain {
			return nil, fmt.Errorf("explicit: state space exceeds %d states", MaxStates)
		}
		total *= v.Domain
	}
	sys := &System{
		C:         c,
		NumStates: total,
		radix:     radix,
		Fault:     make(map[Trans]bool),
		Invariant: make(map[State]bool),
		BadStates: make(map[State]bool),
	}
	for _, v := range c.Space.Vars {
		sys.cur = append(sys.cur, v.CurLevels())
		sys.next = append(sys.next, v.NextLevels())
	}
	for range c.Procs {
		sys.Proc = append(sys.Proc, make(map[Trans]bool))
	}

	sys.fillStates(c.Invariant, sys.Invariant)
	sys.fillStates(c.BadStates, sys.BadStates)
	for j, p := range c.Procs {
		sys.fillTrans(p.Trans, sys.Proc[j])
	}
	sys.fillTrans(c.Fault, sys.Fault)
	return sys, nil
}

// BadTrans reports whether t is a bad transition (Sf_bt). Membership is
// decided pointwise, by one root-to-leaf walk of the symbolic predicate under
// the pair's assignment: a model of a few thousand states can have hundreds
// of millions of bad pairs, far too many to enumerate.
func (sys *System) BadTrans(t Trans) bool {
	m := sys.C.Space.M
	asg := make([]bool, m.NumVars())
	from, to := sys.Values(t.From), sys.Values(t.To)
	for i := range sys.radix {
		for b, v := range sys.cur[i] {
			asg[v] = from[i]>>b&1 != 0
		}
		for b, v := range sys.next[i] {
			asg[v] = to[i]>>b&1 != 0
		}
	}
	return m.Eval(sys.C.BadTrans, asg)
}

// Values decodes a state into per-variable values (declaration order).
func (sys *System) Values(s State) []int {
	out := make([]int, len(sys.radix))
	v := int(s)
	for i, r := range sys.radix {
		out[i] = v % r
		v /= r
	}
	return out
}

// Encode is the inverse of Values.
func (sys *System) Encode(vals []int) State {
	v := 0
	for i := len(vals) - 1; i >= 0; i-- {
		v = v*sys.radix[i] + vals[i]
	}
	return State(v)
}

// fillStates enumerates the models of a state predicate into set.
func (sys *System) fillStates(f bdd.Node, set map[State]bool) {
	s := sys.C.Space
	m := s.M
	m.AllSat(m.And(f, s.ValidCur()), func(cube []int8) bool {
		sys.expandStates(cube, set)
		return true
	})
}

// expandStates expands the don't-care current-state bits of a cube.
func (sys *System) expandStates(cube []int8, set map[State]bool) {
	s := sys.C.Space
	vals := make([]int, len(s.Vars))
	var rec func(i int)
	rec = func(i int) {
		if i == len(s.Vars) {
			set[sys.Encode(vals)] = true
			return
		}
		v := s.Vars[i]
		for _, val := range expandValue(cube, v.CurLevels(), v.DecodeCube(cube), v.Domain) {
			vals[i] = val
			rec(i + 1)
		}
	}
	rec(0)
}

// fillTrans enumerates the models of a transition predicate into set.
func (sys *System) fillTrans(f bdd.Node, set map[Trans]bool) {
	s := sys.C.Space
	m := s.M
	m.AllSat(m.And(f, s.ValidTrans()), func(cube []int8) bool {
		sys.expandTrans(cube, set)
		return true
	})
}

func (sys *System) expandTrans(cube []int8, set map[Trans]bool) {
	s := sys.C.Space
	from := make([]int, len(s.Vars))
	to := make([]int, len(s.Vars))
	var rec func(i int)
	rec = func(i int) {
		if i == len(s.Vars) {
			set[Trans{sys.Encode(from), sys.Encode(to)}] = true
			return
		}
		v := s.Vars[i]
		for _, cv := range expandValue(cube, v.CurLevels(), v.DecodeCube(cube), v.Domain) {
			for _, nv := range expandValue(cube, v.NextLevels(), v.DecodeNextCube(cube), v.Domain) {
				from[i], to[i] = cv, nv
				rec(i + 1)
			}
		}
	}
	rec(0)
}

// expandValue enumerates the variable values compatible with a cube: the
// base value with every combination of the don't-care bits, filtered to the
// domain.
func expandValue(cube []int8, levels []int, base, domain int) []int {
	var freeBits []int
	for b, lvl := range levels {
		if cube[lvl] == -1 {
			freeBits = append(freeBits, b)
		}
	}
	if len(freeBits) == 0 {
		return []int{base}
	}
	var out []int
	for pattern := 0; pattern < 1<<len(freeBits); pattern++ {
		val := base
		for k, b := range freeBits {
			if pattern&(1<<k) != 0 {
				val |= 1 << b
			}
		}
		if val < domain {
			out = append(out, val)
		}
	}
	return out
}

// AllProg returns the union of the process transition sets.
func (sys *System) AllProg() map[Trans]bool {
	out := make(map[Trans]bool)
	for _, pt := range sys.Proc {
		for t := range pt {
			out[t] = true
		}
	}
	return out
}

// Distances runs a breadth-first search from init over the union of the
// given transition sets and returns every reached state with the number of
// steps of a shortest path to it.
func (sys *System) Distances(init map[State]bool, sets ...map[Trans]bool) map[State]int {
	adj := make(map[State][]State)
	for _, set := range sets {
		for t := range set {
			adj[t.From] = append(adj[t.From], t.To)
		}
	}
	dist := make(map[State]int, len(init))
	queue := make([]State, 0, len(init))
	for s := range init {
		dist[s] = 0
		queue = append(queue, s)
	}
	for i := 0; i < len(queue); i++ {
		s := queue[i]
		for _, t := range adj[s] {
			if _, ok := dist[t]; !ok {
				dist[t] = dist[s] + 1
				queue = append(queue, t)
			}
		}
	}
	return dist
}

// FillStates enumerates the models of a symbolic state predicate into set.
func (sys *System) FillStates(f bdd.Node, set map[State]bool) { sys.fillStates(f, set) }

// FillTrans enumerates the models of a symbolic transition predicate into set.
func (sys *System) FillTrans(f bdd.Node, set map[Trans]bool) { sys.fillTrans(f, set) }
