package bdd

// This file implements quantification (∃, ∀), the combined relational
// product And-Exists used for image computation, and variable replacement
// (renaming), which together are the workhorses of symbolic reachability and
// the group computation for read restrictions.
//
// As in apply.go, each public operation is a safe-point wrapper around a
// private recursive body; recursive bodies only call other private bodies.

// Cube builds the positive cube (conjunction) of the variables with the
// given ids. Cubes identify the quantified variable sets for Exists, Forall
// and AndExists.
func (m *Manager) Cube(vars []int) Node {
	m.safe(False, False, False)
	// Build from the bottom of the current order upward so each mk is O(1).
	sorted := make([]int, len(vars))
	for i, v := range vars {
		sorted[i] = int(m.var2level[v])
	}
	insertionSortDesc(sorted)
	r := True
	for _, l := range sorted {
		r = m.mk(int32(l), False, r)
	}
	return m.keep(r)
}

func insertionSortDesc(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] < v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// CubeVars returns the variable ids of a positive cube built by Cube,
// ascending.
func (m *Manager) CubeVars(cube Node) []int {
	var out []int
	for cube != True {
		n := m.nodes[cube]
		out = append(out, int(m.level2var[n.level]))
		if n.low == False {
			cube = n.high
		} else {
			cube = n.low
		}
	}
	insertionSortAsc(out)
	return out
}

// Exists existentially quantifies the variables of cube out of f.
func (m *Manager) Exists(f, cube Node) Node {
	m.safe(f, cube, False)
	return m.keep(m.existsRec(f, cube))
}

func (m *Manager) existsRec(f, cube Node) Node {
	if m.IsTerminal(f) || cube == True {
		return f
	}
	if r, ok := m.unLookup(opExists, f, cube); ok {
		return r
	}
	nf := m.nodes[f]
	// Skip cube variables above f's root.
	c := cube
	for !m.IsTerminal(c) && m.nodes[c].level < nf.level {
		c = m.nodes[c].high
	}
	var r Node
	if c == True {
		r = f
	} else if m.nodes[c].level == nf.level {
		lo := m.existsRec(nf.low, m.nodes[c].high)
		if lo == True {
			r = True
		} else {
			r = m.orRec(lo, m.existsRec(nf.high, m.nodes[c].high))
		}
	} else {
		r = m.mk(nf.level, m.existsRec(nf.low, c), m.existsRec(nf.high, c))
	}
	m.unStore(opExists, f, cube, r)
	return r
}

// Forall universally quantifies the variables of cube out of f.
func (m *Manager) Forall(f, cube Node) Node {
	m.safe(f, cube, False)
	return m.keep(m.forallRec(f, cube))
}

func (m *Manager) forallRec(f, cube Node) Node {
	if m.IsTerminal(f) || cube == True {
		return f
	}
	if r, ok := m.unLookup(opForall, f, cube); ok {
		return r
	}
	nf := m.nodes[f]
	c := cube
	for !m.IsTerminal(c) && m.nodes[c].level < nf.level {
		c = m.nodes[c].high
	}
	var r Node
	if c == True {
		r = f
	} else if m.nodes[c].level == nf.level {
		lo := m.forallRec(nf.low, m.nodes[c].high)
		if lo == False {
			r = False
		} else {
			r = m.andRec(lo, m.forallRec(nf.high, m.nodes[c].high))
		}
	} else {
		r = m.mk(nf.level, m.forallRec(nf.low, c), m.forallRec(nf.high, c))
	}
	m.unStore(opForall, f, cube, r)
	return r
}

// AndExists computes ∃cube. (f ∧ g) without materializing the full
// conjunction — the classic relational product used for image and preimage
// computation on transition relations.
func (m *Manager) AndExists(f, g, cube Node) Node {
	m.safe(f, g, cube)
	return m.keep(m.andExistsRec(f, g, cube))
}

func (m *Manager) andExistsRec(f, g, cube Node) Node {
	// Terminal cases.
	switch {
	case f == False || g == False:
		return False
	case f == True && g == True:
		return True
	case f == True:
		return m.existsRec(g, cube)
	case g == True:
		return m.existsRec(f, cube)
	case f == g:
		return m.existsRec(f, cube)
	}
	if f > g {
		f, g = g, f
	}
	if r, ok := m.relLookup(f, g, cube); ok {
		return r
	}
	nf, ng := m.nodes[f], m.nodes[g]
	top := nf.level
	if ng.level < top {
		top = ng.level
	}
	c := cube
	for !m.IsTerminal(c) && m.nodes[c].level < top {
		c = m.nodes[c].high
	}
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	var r Node
	if c != True && m.nodes[c].level == top {
		rest := m.nodes[c].high
		lo := m.andExistsRec(f0, g0, rest)
		if lo == True {
			r = True
		} else {
			r = m.orRec(lo, m.andExistsRec(f1, g1, rest))
		}
	} else {
		r = m.mk(top, m.andExistsRec(f0, g0, c), m.andExistsRec(f1, g1, c))
	}
	m.relStore(f, g, cube, r)
	return r
}

// Permutation registers a variable renaming for use with Replace. mapping
// maps variable ids to variable ids; it must be a bijection on the ids it
// moves. Unlisted ids (mapping[i] == i) stay in place.
type Permutation struct {
	id      Node // index into m.perm, used as cache parameter
	mapping []int32
}

// NewPermutation registers mapping (old variable id -> new variable id) with
// the manager. The mapping slice must have one entry per allocated variable.
func (m *Manager) NewPermutation(mapping []int) *Permutation {
	if len(mapping) != m.numVars {
		panic("bdd: permutation length must equal NumVars")
	}
	mm := make([]int32, len(mapping))
	seen := make([]bool, len(mapping))
	for i, v := range mapping {
		if v < 0 || v >= m.numVars {
			panic("bdd: permutation target out of range")
		}
		if seen[v] {
			panic("bdd: permutation is not a bijection")
		}
		seen[v] = true
		mm[i] = int32(v)
	}
	m.perm = append(m.perm, permutation{mapping: mm})
	return &Permutation{id: Node(len(m.perm) - 1), mapping: mm}
}

// Replace renames the variables of f according to the permutation. The
// implementation rebuilds with ITE, so it is correct for arbitrary
// (order-breaking) permutations such as swapping current- and next-state
// variables.
func (m *Manager) Replace(f Node, p *Permutation) Node {
	m.safe(f, False, False)
	return m.keep(m.replaceRec(f, p))
}

func (m *Manager) replaceRec(f Node, p *Permutation) Node {
	if m.IsTerminal(f) {
		return f
	}
	if r, ok := m.unLookup(opReplace, f, p.id); ok {
		return r
	}
	n := m.nodes[f]
	lo := m.replaceRec(n.low, p)
	hi := m.replaceRec(n.high, p)
	r := m.iteRec(m.mkVar(m.var2level[p.mapping[m.level2var[n.level]]]), hi, lo)
	m.unStore(opReplace, f, p.id, r)
	return r
}
