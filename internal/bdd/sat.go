package bdd

import (
	"fmt"
	"math"
	"strings"
)

// This file implements model counting, model enumeration, evaluation and
// structural inspection of BDDs.

// SatCount returns the number of satisfying assignments of f over all
// variables currently allocated in the manager. The result is a float64; for
// the state-space sizes in the paper's tables (up to 10^30) this is exact in
// shape though not in the last bits.
func (m *Manager) SatCount(f Node) float64 {
	return m.SatCountVars(f, m.numVars)
}

// SatCountVars returns the number of satisfying assignments of f over the
// first nvars variables of the order. f must not depend on variables at or
// beyond level nvars.
func (m *Manager) SatCountVars(f Node, nvars int) float64 {
	full := m.satRec(f) * math.Pow(2, float64(m.levelOrTop(f)))
	return full / math.Pow(2, float64(m.numVars-nvars))
}

// levelOrTop returns f's root level, treating terminals as sitting just
// below the last variable.
func (m *Manager) levelOrTop(f Node) int32 {
	if m.IsTerminal(f) {
		return int32(m.numVars)
	}
	return m.nodes[f].level
}

// satRec returns the satisfying-assignment count of f over the variables at
// levels in [level(f), numVars).
func (m *Manager) satRec(f Node) float64 {
	if f == False {
		return 0
	}
	if f == True {
		return 1
	}
	if c, ok := m.sat[f]; ok {
		return c
	}
	n := m.nodes[f]
	cl := m.satRec(n.low) * math.Pow(2, float64(m.levelOrTop(n.low)-n.level-1))
	ch := m.satRec(n.high) * math.Pow(2, float64(m.levelOrTop(n.high)-n.level-1))
	c := cl + ch
	// The memo is a cache, not a requirement: bound it so a long-lived
	// manager cannot grow it without limit. Dropping entries mid-walk only
	// costs recomputation.
	if len(m.sat) >= satMemoLimit {
		m.sat = make(map[Node]float64)
	}
	m.sat[f] = c
	return c
}

// IsSat reports whether f has at least one satisfying assignment.
func (m *Manager) IsSat(f Node) bool { return f != False }

// Eval evaluates f under the given total assignment (indexed by variable
// id).
func (m *Manager) Eval(f Node, assignment []bool) bool {
	for !m.IsTerminal(f) {
		n := m.nodes[f]
		if assignment[m.level2var[n.level]] {
			f = n.high
		} else {
			f = n.low
		}
	}
	return f == True
}

// PickCube returns one satisfying assignment of f as a slice indexed by
// variable id with values 1 (true), 0 (false) and -1 (don't care). It
// returns nil if f is unsatisfiable.
//
// The pick is canonical in the variable ids, not the order: variables are
// examined in id order, choosing the false branch whenever it is satisfiable
// and leaving variables the remaining function does not depend on as don't
// cares. Two managers holding the same function under different variable
// orders therefore pick the same cube — the property that keeps witness
// traces byte-identical with reordering enabled. When the order is the
// identity this degenerates into the plain root-to-terminal walk.
func (m *Manager) PickCube(f Node) []int8 {
	if f == False {
		return nil
	}
	m.safe(f, False, False)
	out := make([]int8, m.numVars)
	for i := range out {
		out[i] = -1
	}
	for v := 0; v < m.numVars && !m.IsTerminal(f); v++ {
		lvl := m.var2level[v]
		f0 := m.cofVarRec(f, lvl, 0)
		f1 := m.cofVarRec(f, lvl, 1)
		if f0 == f1 {
			continue // f does not depend on v
		}
		if f0 != False {
			out[v] = 0
			f = f0
		} else {
			out[v] = 1
			f = f1
		}
	}
	return out
}

// PickCubeRand is PickCube with randomized branch choices: whenever both
// cofactors are satisfiable, coin() decides which branch to take, so
// repeated calls sample different models. Variables the chosen model does
// not constrain are left as -1 (don't care). Like PickCube, the walk is in
// variable-id order, so the sequence of coin() consultations depends only on
// the function, not on the current variable order.
func (m *Manager) PickCubeRand(f Node, coin func() bool) []int8 {
	if f == False {
		return nil
	}
	m.safe(f, False, False)
	out := make([]int8, m.numVars)
	for i := range out {
		out[i] = -1
	}
	for v := 0; v < m.numVars && !m.IsTerminal(f); v++ {
		lvl := m.var2level[v]
		f0 := m.cofVarRec(f, lvl, 0)
		f1 := m.cofVarRec(f, lvl, 1)
		switch {
		case f0 == f1:
			continue
		case f0 == False:
			out[v] = 1
			f = f1
		case f1 == False:
			out[v] = 0
			f = f0
		case coin():
			out[v] = 1
			f = f1
		default:
			out[v] = 0
			f = f0
		}
	}
	return out
}

// AllSat calls visit for every satisfying cube of f. The cube slice is
// indexed by variable id with values 1, 0 and -1 (don't care); it is reused
// across calls, so visit must copy it if it retains it. Enumeration stops
// early if visit returns false. Cubes are produced in variable-id
// lexicographic order (false before true), independent of the current
// variable order.
func (m *Manager) AllSat(f Node, visit func(cube []int8) bool) {
	m.safe(f, False, False)
	cube := make([]int8, m.numVars)
	for i := range cube {
		cube[i] = -1
	}
	m.allSatRec(f, 0, cube, visit)
}

func (m *Manager) allSatRec(f Node, v int, cube []int8, visit func([]int8) bool) bool {
	if f == False {
		return true
	}
	if f == True || v == m.numVars {
		return visit(cube)
	}
	lvl := m.var2level[v]
	f0 := m.cofVarRec(f, lvl, 0)
	f1 := m.cofVarRec(f, lvl, 1)
	if f0 == f1 {
		return m.allSatRec(f0, v+1, cube, visit)
	}
	// The restricted functions are fresh nodes, not part of f's DAG — root
	// them across the recursion in case visit calls back into the manager
	// and lands on a collection or reorder safe point.
	m.Ref(f0)
	m.Ref(f1)
	defer func() {
		m.Deref(f0)
		m.Deref(f1)
	}()
	cube[v] = 0
	if !m.allSatRec(f0, v+1, cube, visit) {
		cube[v] = -1
		return false
	}
	cube[v] = 1
	if !m.allSatRec(f1, v+1, cube, visit) {
		cube[v] = -1
		return false
	}
	cube[v] = -1
	return true
}

// Support returns the ids of the variables f depends on, ascending.
func (m *Manager) Support(f Node) []int {
	seen := make(map[Node]bool)
	vars := make(map[int32]bool)
	var rec func(Node)
	rec = func(g Node) {
		if m.IsTerminal(g) || seen[g] {
			return
		}
		seen[g] = true
		n := m.nodes[g]
		vars[m.level2var[n.level]] = true
		rec(n.low)
		rec(n.high)
	}
	rec(f)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, int(v))
	}
	insertionSortAsc(out)
	return out
}

func insertionSortAsc(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// NodeCount returns the number of distinct nodes in the DAG rooted at f,
// including terminals reachable from it.
//
// The fixpoint scheduler calls it once per image, so it allocates nothing in
// the steady state: a reusable mark bitset over the node table, and a visit
// list that is both the worklist and, at the end, the list of marks to clear
// (the bitset is all zero between calls).
func (m *Manager) NodeCount(f Node) int {
	if words := (cap(m.nodes) + 63) / 64; len(m.countMarks) < words {
		m.countMarks = make([]uint64, words)
	}
	marks := m.countMarks
	visit := append(m.countList[:0], f)
	marks[f>>6] |= 1 << (uint(f) & 63)
	for i := 0; i < len(visit); i++ {
		g := visit[i]
		if g <= True {
			continue
		}
		n := &m.nodes[g]
		for _, c := range [2]Node{n.low, n.high} {
			if w, b := c>>6, uint(c)&63; marks[w]&(1<<b) == 0 {
				marks[w] |= 1 << b
				visit = append(visit, c)
			}
		}
	}
	for _, g := range visit {
		marks[g>>6] = 0 // every set bit belongs to a visited node
	}
	m.countList = visit[:0]
	return len(visit)
}

// String renders f as a disjunction of cubes (up to a small limit), mainly
// for debugging and tests.
func (m *Manager) String(f Node) string {
	switch f {
	case False:
		return "false"
	case True:
		return "true"
	}
	var sb strings.Builder
	count := 0
	const limit = 16
	m.AllSat(f, func(cube []int8) bool {
		if count == limit {
			sb.WriteString(" ∨ …")
			return false
		}
		if count > 0 {
			sb.WriteString(" ∨ ")
		}
		sb.WriteString("(")
		first := true
		for id, v := range cube {
			if v == -1 {
				continue
			}
			if !first {
				sb.WriteString("∧")
			}
			first = false
			if v == 0 {
				sb.WriteString("¬")
			}
			sb.WriteString(m.varNames[id])
		}
		sb.WriteString(")")
		count++
		return true
	})
	return sb.String()
}

// Dot renders the DAG rooted at f in Graphviz DOT format.
func (m *Manager) Dot(f Node, name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("  node [shape=circle];\n")
	sb.WriteString("  F [shape=box,label=\"0\"]; T [shape=box,label=\"1\"];\n")
	seen := make(map[Node]bool)
	var rec func(Node)
	label := func(g Node) string {
		switch g {
		case False:
			return "F"
		case True:
			return "T"
		}
		return fmt.Sprintf("n%d", g)
	}
	rec = func(g Node) {
		if m.IsTerminal(g) || seen[g] {
			return
		}
		seen[g] = true
		n := m.nodes[g]
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", g, m.varNames[m.level2var[n.level]])
		fmt.Fprintf(&sb, "  n%d -> %s [style=dashed];\n", g, label(n.low))
		fmt.Fprintf(&sb, "  n%d -> %s;\n", g, label(n.high))
		rec(n.low)
		rec(n.high)
	}
	rec(f)
	sb.WriteString("}\n")
	return sb.String()
}
