package bdd

// This file implements the core logical operations: Not, And, Or, Xor, the
// general if-then-else (ITE) combinator, and the derived operations built on
// them. All recursions are memoized in direct-mapped caches.
//
// Each public operation is a thin wrapper: a GC safe point (safe) that
// temp-roots the operands, a private recursive body, and a keep() that
// records the result in the recent-results root ring. The recursive bodies
// only ever call other private bodies, so a collection can never run while
// intermediate nodes live on the Go stack.

// Not returns the complement of f.
func (m *Manager) Not(f Node) Node {
	m.safe(f, False, False)
	return m.keep(m.notRec(f))
}

func (m *Manager) notRec(f Node) Node {
	switch f {
	case False:
		return True
	case True:
		return False
	}
	if r, ok := m.unLookup(opNot, f, 0); ok {
		return r
	}
	n := m.nodes[f]
	r := m.mk(n.level, m.notRec(n.low), m.notRec(n.high))
	m.unStore(opNot, f, 0, r)
	return r
}

// And returns the conjunction of f and g.
func (m *Manager) And(f, g Node) Node {
	m.safe(f, g, False)
	return m.keep(m.andRec(f, g))
}

func (m *Manager) andRec(f, g Node) Node {
	// Terminal cases.
	switch {
	case f == False || g == False:
		return False
	case f == True:
		return g
	case g == True:
		return f
	case f == g:
		return f
	}
	if f > g {
		f, g = g, f // canonical argument order for better cache reuse
	}
	if r, ok := m.binLookup(opAnd, f, g); ok {
		return r
	}
	nf, ng := m.nodes[f], m.nodes[g]
	top := nf.level
	if ng.level < top {
		top = ng.level
	}
	var r Node
	switch {
	case nf.level == ng.level:
		r = m.mk(top, m.andRec(nf.low, ng.low), m.andRec(nf.high, ng.high))
	case nf.level < ng.level:
		r = m.mk(top, m.andRec(nf.low, g), m.andRec(nf.high, g))
	default:
		r = m.mk(top, m.andRec(f, ng.low), m.andRec(f, ng.high))
	}
	m.binStore(opAnd, f, g, r)
	return r
}

// Or returns the disjunction of f and g.
func (m *Manager) Or(f, g Node) Node {
	m.safe(f, g, False)
	return m.keep(m.orRec(f, g))
}

func (m *Manager) orRec(f, g Node) Node {
	switch {
	case f == True || g == True:
		return True
	case f == False:
		return g
	case g == False:
		return f
	case f == g:
		return f
	}
	if f > g {
		f, g = g, f
	}
	if r, ok := m.binLookup(opOr, f, g); ok {
		return r
	}
	nf, ng := m.nodes[f], m.nodes[g]
	top := nf.level
	if ng.level < top {
		top = ng.level
	}
	var r Node
	switch {
	case nf.level == ng.level:
		r = m.mk(top, m.orRec(nf.low, ng.low), m.orRec(nf.high, ng.high))
	case nf.level < ng.level:
		r = m.mk(top, m.orRec(nf.low, g), m.orRec(nf.high, g))
	default:
		r = m.mk(top, m.orRec(f, ng.low), m.orRec(f, ng.high))
	}
	m.binStore(opOr, f, g, r)
	return r
}

// Xor returns the exclusive or of f and g.
func (m *Manager) Xor(f, g Node) Node {
	m.safe(f, g, False)
	return m.keep(m.xorRec(f, g))
}

func (m *Manager) xorRec(f, g Node) Node {
	switch {
	case f == False:
		return g
	case g == False:
		return f
	case f == True:
		return m.notRec(g)
	case g == True:
		return m.notRec(f)
	case f == g:
		return False
	}
	if f > g {
		f, g = g, f
	}
	if r, ok := m.binLookup(opXor, f, g); ok {
		return r
	}
	nf, ng := m.nodes[f], m.nodes[g]
	var r Node
	switch {
	case nf.level == ng.level:
		r = m.mk(nf.level, m.xorRec(nf.low, ng.low), m.xorRec(nf.high, ng.high))
	case nf.level < ng.level:
		r = m.mk(nf.level, m.xorRec(nf.low, g), m.xorRec(nf.high, g))
	default:
		r = m.mk(ng.level, m.xorRec(f, ng.low), m.xorRec(f, ng.high))
	}
	m.binStore(opXor, f, g, r)
	return r
}

// Diff returns f ∧ ¬g (set difference when BDDs encode sets). It is one
// memoized recursion, so ¬g is never built.
func (m *Manager) Diff(f, g Node) Node {
	m.safe(f, g, False)
	return m.keep(m.diffRec(f, g))
}

func (m *Manager) diffRec(f, g Node) Node {
	switch {
	case f == False || g == True || f == g:
		return False
	case g == False:
		return f
	case f == True:
		return m.notRec(g)
	}
	if r, ok := m.binLookup(opDiff, f, g); ok {
		return r
	}
	nf, ng := m.nodes[f], m.nodes[g]
	top := nf.level
	if ng.level < top {
		top = ng.level
	}
	var r Node
	switch {
	case nf.level == ng.level:
		r = m.mk(top, m.diffRec(nf.low, ng.low), m.diffRec(nf.high, ng.high))
	case nf.level < ng.level:
		r = m.mk(top, m.diffRec(nf.low, g), m.diffRec(nf.high, g))
	default:
		r = m.mk(top, m.diffRec(f, ng.low), m.diffRec(f, ng.high))
	}
	m.binStore(opDiff, f, g, r)
	return r
}

// AndDiff returns f ∧ g ∧ ¬h as one memoized three-operand recursion:
// neither f ∧ g nor ¬h is built. It shares the relational-product cache,
// with h in the cube's place.
func (m *Manager) AndDiff(f, g, h Node) Node {
	m.safe(f, g, h)
	return m.keep(m.andDiffRec(f, g, h))
}

func (m *Manager) andDiffRec(f, g, h Node) Node {
	switch {
	case f == False || g == False || h == True || f == h || g == h:
		return False
	case h == False:
		return m.andRec(f, g)
	case f == True || f == g:
		return m.diffRec(g, h)
	case g == True:
		return m.diffRec(f, h)
	}
	if f > g {
		f, g = g, f
	}
	if r, ok := m.relLookup(opAndDiff, f, g, h); ok {
		return r
	}
	top := min(m.nodes[f].level, m.nodes[g].level, m.nodes[h].level)
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	h0, h1 := m.cofactor(h, top)
	r := m.mk(top, m.andDiffRec(f0, g0, h0), m.andDiffRec(f1, g1, h1))
	m.relStore(opAndDiff, f, g, h, r)
	return r
}

// Imp returns the implication f ⇒ g.
func (m *Manager) Imp(f, g Node) Node {
	m.Ref(g)
	r := m.Or(m.Not(f), g)
	m.Deref(g)
	return r
}

// Iff returns the biconditional f ⇔ g.
func (m *Manager) Iff(f, g Node) Node { return m.Not(m.Xor(f, g)) }

// ITE returns the if-then-else combinator: (f ∧ g) ∨ (¬f ∧ h).
func (m *Manager) ITE(f, g, h Node) Node {
	m.safe(f, g, h)
	return m.keep(m.iteRec(f, g, h))
}

func (m *Manager) iteRec(f, g, h Node) Node {
	// Terminal simplifications.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return m.notRec(f)
	}
	if r, ok := m.iteLookup(f, g, h); ok {
		return r
	}
	top := m.nodes[f].level
	if l := m.nodes[g].level; l < top {
		top = l
	}
	if l := m.nodes[h].level; l < top {
		top = l
	}
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	h0, h1 := m.cofactor(h, top)
	r := m.mk(top, m.iteRec(f0, g0, h0), m.iteRec(f1, g1, h1))
	m.iteStore(f, g, h, r)
	return r
}

// cofactor returns the (low, high) cofactors of f with respect to the
// variable at the given level. If f's root is above that level, f is
// independent of it and both cofactors are f itself.
func (m *Manager) cofactor(f Node, level int32) (Node, Node) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.low, n.high
}

// cofVarRec returns one cofactor of f with respect to the variable at the
// given level, which — unlike cofactor's — may lie anywhere in the order,
// not just at f's root. which selects high (1) or low (0). This is what lets
// model picking walk variables in id order while the level order underneath
// is arbitrary: when the order is the identity the recursion never descends
// (the level is always at or above f's root), so it costs nothing extra.
func (m *Manager) cofVarRec(f Node, level int32, which uint32) Node {
	n := m.nodes[f]
	if m.IsTerminal(f) || n.level > level {
		return f
	}
	if n.level == level {
		if which == 1 {
			return n.high
		}
		return n.low
	}
	op := opCof0 + which
	if r, ok := m.unLookup(op, f, Node(level)); ok {
		return r
	}
	r := m.mk(n.level, m.cofVarRec(n.low, level, which), m.cofVarRec(n.high, level, which))
	m.unStore(op, f, Node(level), r)
	return r
}

// AndN returns the conjunction of all arguments (True for no arguments).
func (m *Manager) AndN(fs ...Node) Node {
	for _, f := range fs {
		m.Ref(f)
	}
	r := True
	for _, f := range fs {
		r = m.And(r, f)
		if r == False {
			break
		}
	}
	for _, f := range fs {
		m.Deref(f)
	}
	return r
}

// OrN returns the disjunction of all arguments (False for no arguments).
func (m *Manager) OrN(fs ...Node) Node {
	for _, f := range fs {
		m.Ref(f)
	}
	r := False
	for _, f := range fs {
		r = m.Or(r, f)
		if r == True {
			break
		}
	}
	for _, f := range fs {
		m.Deref(f)
	}
	return r
}

// Implies reports whether f ⇒ g holds for all assignments, i.e. the set
// denoted by f is a subset of the set denoted by g.
func (m *Manager) Implies(f, g Node) bool {
	return m.Diff(f, g) == False
}

// --- cache plumbing -------------------------------------------------------

func (m *Manager) binLookup(op uint32, f, g Node) (Node, bool) {
	e := &m.bin[hash3(uint64(op), uint64(f), uint64(g))&uint64(len(m.bin)-1)]
	if e.epoch == m.cacheEpoch && e.op == op && e.f == f && e.g == g {
		m.stats.CacheHits++
		return e.res, true
	}
	m.stats.CacheMisses++
	return 0, false
}

func (m *Manager) binStore(op uint32, f, g, res Node) {
	e := &m.bin[hash3(uint64(op), uint64(f), uint64(g))&uint64(len(m.bin)-1)]
	*e = binEntry{f: f, g: g, res: res, op: op, epoch: m.cacheEpoch}
}

func (m *Manager) unLookup(op uint32, f, param Node) (Node, bool) {
	e := &m.un[hash3(uint64(op), uint64(f), uint64(param))&uint64(len(m.un)-1)]
	if e.epoch == m.cacheEpoch && e.op == op && e.f == f && e.param == param {
		m.stats.CacheHits++
		return e.res, true
	}
	m.stats.CacheMisses++
	return 0, false
}

func (m *Manager) unStore(op uint32, f, param, res Node) {
	e := &m.un[hash3(uint64(op), uint64(f), uint64(param))&uint64(len(m.un)-1)]
	*e = unEntry{f: f, param: param, res: res, op: op, epoch: m.cacheEpoch}
}

func (m *Manager) iteLookup(f, g, h Node) (Node, bool) {
	e := &m.ite[hash3(uint64(f), uint64(g), uint64(h))&uint64(len(m.ite)-1)]
	if e.epoch == m.cacheEpoch && e.f == f && e.g == g && e.h == h {
		m.stats.CacheHits++
		return e.res, true
	}
	m.stats.CacheMisses++
	return 0, false
}

func (m *Manager) iteStore(f, g, h, res Node) {
	e := &m.ite[hash3(uint64(f), uint64(g), uint64(h))&uint64(len(m.ite)-1)]
	*e = iteEntry{f: f, g: g, h: h, res: res, epoch: m.cacheEpoch}
}

// relHash mixes a rel-cache key; the op tag rides in f's high word.
func relHash(op uint32, f, g, cube Node) uint64 {
	return hash3(uint64(op)<<32|uint64(uint32(f)), uint64(g), uint64(cube))
}

func (m *Manager) relLookup(op uint32, f, g, cube Node) (Node, bool) {
	e := &m.rel[relHash(op, f, g, cube)&uint64(len(m.rel)-1)]
	if e.epoch == m.cacheEpoch && e.op == op && e.f == f && e.g == g && e.cube == cube {
		m.stats.CacheHits++
		return e.res, true
	}
	m.stats.CacheMisses++
	return 0, false
}

func (m *Manager) relStore(op uint32, f, g, cube, res Node) {
	e := &m.rel[relHash(op, f, g, cube)&uint64(len(m.rel)-1)]
	*e = relEntry{f: f, g: g, cube: cube, res: res, op: op, epoch: m.cacheEpoch}
}

// Restrict computes Coudert–Madre's generalized cofactor f⇓c ("restrict"):
// a function that agrees with f on every assignment satisfying the care-set
// c and is chosen to have a small BDD elsewhere. Useful to compact
// predicates that are only ever evaluated under an invariant or a
// reachable-set constraint. c must not be False.
func (m *Manager) Restrict(f, c Node) Node {
	m.safe(f, c, False)
	return m.keep(m.restrictRec(f, c))
}

func (m *Manager) restrictRec(f, c Node) Node {
	switch {
	case c == True || m.IsTerminal(f):
		return f
	case c == False:
		panic("bdd: Restrict with empty care set")
	}
	if r, ok := m.binLookup(opSimplify, f, c); ok {
		return r
	}
	nc := m.nodes[c]
	nf := m.nodes[f]
	var r Node
	switch {
	case nc.level < nf.level:
		switch {
		case nc.low == False:
			r = m.restrictRec(f, nc.high)
		case nc.high == False:
			r = m.restrictRec(f, nc.low)
		default:
			r = m.mk(nc.level, m.restrictRec(f, nc.low), m.restrictRec(f, nc.high))
		}
	case nc.level == nf.level:
		switch {
		case nc.low == False:
			r = m.restrictRec(nf.high, nc.high)
		case nc.high == False:
			r = m.restrictRec(nf.low, nc.low)
		default:
			r = m.mk(nf.level, m.restrictRec(nf.low, nc.low), m.restrictRec(nf.high, nc.high))
		}
	default:
		r = m.mk(nf.level, m.restrictRec(nf.low, c), m.restrictRec(nf.high, c))
	}
	m.binStore(opSimplify, f, c, r)
	return r
}
