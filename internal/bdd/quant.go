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
	c := m.cubeFrom(cube, nf.level)
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
	c := m.cubeFrom(cube, nf.level)
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
	if r, ok := m.relLookup(opAndExists, f, g, cube); ok {
		return r
	}
	nf, ng := m.nodes[f], m.nodes[g]
	top := min(nf.level, ng.level)
	c := m.cubeFrom(cube, top)
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
	m.relStore(opAndExists, f, g, cube, r)
	return r
}

// cubeFrom skips the variables of cube above level.
func (m *Manager) cubeFrom(cube Node, level int32) Node {
	for cube != True && m.nodes[cube].level < level {
		cube = m.nodes[cube].high
	}
	return cube
}

// DiffExists computes ∃cube. (f ∧ ¬g), the fused form of
// Exists(Diff(f, g), cube): neither ¬g nor f ∧ ¬g is built.
func (m *Manager) DiffExists(f, g, cube Node) Node {
	m.safe(f, g, cube)
	return m.keep(m.diffExistsRec(f, g, cube))
}

func (m *Manager) diffExistsRec(f, g, cube Node) Node {
	switch {
	case f == False || g == True || f == g:
		return False
	case g == False:
		return m.existsRec(f, cube)
	case cube == True:
		return m.diffRec(f, g)
	}
	if r, ok := m.relLookup(opDiffExists, f, g, cube); ok {
		return r
	}
	// f may be True here: its cofactors are True, and the recursion walks g.
	top := min(m.nodes[f].level, m.nodes[g].level)
	c := m.cubeFrom(cube, top)
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	var r Node
	if c != True && m.nodes[c].level == top {
		rest := m.nodes[c].high
		lo := m.diffExistsRec(f0, g0, rest)
		if lo == True {
			r = True
		} else {
			r = m.orRec(lo, m.diffExistsRec(f1, g1, rest))
		}
	} else {
		r = m.mk(top, m.diffExistsRec(f0, g0, c), m.diffExistsRec(f1, g1, c))
	}
	m.relStore(opDiffExists, f, g, cube, r)
	return r
}

// The shifted relational products. On the Space's interleaved order every
// next-state variable sits directly below its current-state twin, so
// renaming between the two moves each node exactly one level. RelNext
// builds an image's nodes one level up as it goes, and RelPrev reads its
// target's nodes one level down, instead of building a renamed copy with
// Replace (Sylvan's relnext and relprev). When sifting has moved a variable
// away from its twin, the operation computes the composition it stands for
// instead; both paths give the same node. Each node the shift touches is
// checked as well — the variable one level away must be its image under
// the permutation — and the recursion gives up when it is not: a target
// that is not a state set never takes the shifted path.
//
// shiftFail is the result of a recursion that gave up. It is never stored.
const shiftFail Node = -1

// twinsAdjacent reports whether every pair p swaps sits on adjacent levels,
// the lower id directly above its twin: the layout the shifted products
// need.
func (m *Manager) twinsAdjacent(p *Permutation) bool {
	for v, w := range p.mapping {
		if int32(v) < w && m.var2level[w] != m.var2level[v]+1 {
			return false
		}
	}
	return true
}

// relOp is the rel-cache tag of a shifted product under p. The result
// depends on p, so the key names it.
func relOp(op uint32, p *Permutation) uint32 { return op | uint32(p.id)<<8 }

// RelNext returns Replace(AndExists(f, g, cube), p): for a state set f, a
// transition relation g over current and next-state bits, cube the
// current-state bits and p the current/next swap, the image of f under g
// over current-state bits.
func (m *Manager) RelNext(f, g, cube Node, p *Permutation) Node {
	m.safe(f, g, cube)
	// Decided after the safe point, where a sifting pass may have run.
	if m.twinsAdjacent(p) {
		if r := m.relNextRec(f, g, cube, p, relOp(opRelNext, p)); r != shiftFail {
			return m.keep(r)
		}
	}
	return m.keep(m.replaceRec(m.andExistsRec(f, g, cube), p))
}

func (m *Manager) relNextRec(f, g, cube Node, p *Permutation, op uint32) Node {
	switch {
	case f == False || g == False:
		return False
	case f == g:
		f = True
	}
	if f > g {
		f, g = g, f
	}
	if g == True {
		return True
	}
	if r, ok := m.relLookup(op, f, g, cube); ok {
		return r
	}
	top := min(m.nodes[f].level, m.nodes[g].level)
	c := m.cubeFrom(cube, top)
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	var r Node
	if c != True && m.nodes[c].level == top {
		rest := m.nodes[c].high
		lo := m.relNextRec(f0, g0, rest, p, op)
		if lo == shiftFail {
			return lo
		}
		r = lo
		if lo != True {
			hi := m.relNextRec(f1, g1, rest, p, op)
			if hi == shiftFail {
				return hi
			}
			r = m.orRec(lo, hi)
		}
	} else {
		// A kept variable's node moves up to its image's level.
		if m.var2level[p.mapping[m.level2var[top]]] != top-1 {
			return shiftFail
		}
		lo := m.relNextRec(f0, g0, c, p, op)
		if lo == shiftFail {
			return lo
		}
		hi := m.relNextRec(f1, g1, c, p, op)
		if hi == shiftFail {
			return hi
		}
		r = m.mk(top-1, lo, hi)
	}
	m.relStore(op, f, g, cube, r)
	return r
}

// RelPrev returns AndExists(f, Replace(g, p), cube): for a transition
// relation f, a state set g, cube the next-state bits and p the
// current/next swap, the preimage of g under f. A target node whose
// variable's image is not directly below it makes the operation compute
// the composition instead.
func (m *Manager) RelPrev(f, g, cube Node, p *Permutation) Node {
	m.safe(f, g, cube)
	// Decided after the safe point, where a sifting pass may have run.
	if m.twinsAdjacent(p) {
		if r := m.relPrevRec(f, g, cube, p, relOp(opRelPrev, p)); r != shiftFail {
			return m.keep(r)
		}
	}
	return m.keep(m.andExistsRec(f, m.replaceRec(g, p), cube))
}

func (m *Manager) relPrevRec(f, g, cube Node, p *Permutation, op uint32) Node {
	switch {
	case f == False || g == False:
		return False
	case g == True:
		return m.existsRec(f, cube)
	}
	if r, ok := m.relLookup(op, f, g, cube); ok {
		return r
	}
	// g's root stands for its image, one level down.
	ng := m.nodes[g]
	gl := ng.level + 1
	if m.var2level[p.mapping[m.level2var[ng.level]]] != gl {
		return shiftFail
	}
	top := min(m.nodes[f].level, gl)
	c := m.cubeFrom(cube, top)
	f0, f1 := m.cofactor(f, top)
	g0, g1 := g, g
	if gl == top {
		g0, g1 = ng.low, ng.high
	}
	var r Node
	if c != True && m.nodes[c].level == top {
		rest := m.nodes[c].high
		lo := m.relPrevRec(f0, g0, rest, p, op)
		if lo == shiftFail {
			return lo
		}
		r = lo
		if lo != True {
			hi := m.relPrevRec(f1, g1, rest, p, op)
			if hi == shiftFail {
				return hi
			}
			r = m.orRec(lo, hi)
		}
	} else {
		lo := m.relPrevRec(f0, g0, c, p, op)
		if lo == shiftFail {
			return lo
		}
		hi := m.relPrevRec(f1, g1, c, p, op)
		if hi == shiftFail {
			return hi
		}
		r = m.mk(top, lo, hi)
	}
	m.relStore(op, f, g, cube, r)
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
