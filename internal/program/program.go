// Package program models distributed programs in the paper's sense: a finite
// set of finite-domain variables and a set of processes, each with read and
// write restrictions and a set of guarded-command actions. Programs compile
// to symbolic (BDD) transition predicates, and the package provides the
// read-restriction group operator that defines realizability
// (Section III-B of the paper).
package program

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/expr"
	"repro/internal/symbolic"
)

// UpdateKind distinguishes the forms of assignment an action can make.
type UpdateKind int

const (
	// SetConst assigns a constant: v := c.
	SetConst UpdateKind = iota
	// CopyVar assigns another variable's current value: v := w.
	CopyVar
	// ChooseConst assigns nondeterministically one of several constants:
	// v := c1 | c2 | …  (used e.g. for Byzantine perturbation).
	ChooseConst
)

// Update is a single assignment performed by an action.
type Update struct {
	Kind  UpdateKind
	Var   string
	Val   int    // SetConst
	From  string // CopyVar
	Among []int  // ChooseConst
}

// Set returns the update v := val.
func Set(v string, val int) Update { return Update{Kind: SetConst, Var: v, Val: val} }

// Copy returns the update v := from.
func Copy(v, from string) Update { return Update{Kind: CopyVar, Var: v, From: from} }

// Choose returns the nondeterministic update v := among[0] | among[1] | …
func Choose(v string, among ...int) Update {
	return Update{Kind: ChooseConst, Var: v, Among: among}
}

// Action is a guarded command: when Guard holds, perform Updates atomically;
// all variables without an update stay unchanged.
type Action struct {
	Name    string
	Guard   expr.Expr
	Updates []Update
	// Cost is the optional weight annotation (.ftr trailing `cost N` clause):
	// the price cost-aware repair assigns to each transition of this action.
	// 0 means unannotated — such transitions fall back to cost rules or the
	// model default (see Compiled.WeightADD). Ignored on fault actions.
	Cost int64
}

// Process declares one process of a distributed program: the variables it
// may read, the variables it may write (W ⊆ R per Definition 17), and its
// actions.
type Process struct {
	Name    string
	Read    []string
	Write   []string
	Actions []Action
}

// Def is the complete declarative definition of a repair problem instance:
// the distributed program, its fault actions, the invariant (set of
// legitimate states), and the safety specification (bad states Sf_bs and bad
// transitions Sf_bt).
type Def struct {
	Name      string
	Vars      []symbolic.VarSpec
	Processes []*Process
	// Faults are transitions not subject to read/write restrictions
	// (Definition 12).
	Faults []Action
	// Invariant is the set of legitimate states S.
	Invariant expr.Expr
	// BadStates is Sf_bs: states no computation may reach.
	BadStates expr.Expr
	// BadTrans is Sf_bt: transitions no computation may take. It may use
	// transition-level predicates (Changed, NextEq).
	BadTrans expr.Expr
	// Liveness holds the optional leads-to properties L ↝ T of the
	// specification (Definition 8). The repair algorithms preserve safety
	// and recovery by construction; leads-to properties are checked by the
	// verifier on the repaired program (see verify.Result).
	Liveness []LeadsTo
	// CostRules price transitions by predicate (.ftr top-level
	// `cost N : expr` declarations; transition-level predicates allowed).
	// When several sources price one transition, the minimum wins.
	CostRules []CostRule
}

// CostRule prices every transition satisfying Pred at Cost (Cost ≥ 1).
type CostRule struct {
	Cost int64
	Pred expr.Expr
}

// LeadsTo is one leads-to property L ↝ T: every computation that visits an
// L-state must later visit a T-state (Definition 8).
type LeadsTo struct {
	Name string
	From expr.Expr // L
	To   expr.Expr // T
}

// CompiledLeadsTo is the symbolic form of a LeadsTo.
type CompiledLeadsTo struct {
	Name     string
	From, To bdd.Node
}

// CompiledProc is the symbolic form of one process.
type CompiledProc struct {
	Name  string
	Read  map[string]bool
	Write map[string]bool

	// Trans is δ_j: the process's transitions (write restrictions hold by
	// construction).
	Trans bdd.Node
	// WriteOK is the set of transitions that respect the process's write
	// restriction: every variable outside W_j unchanged.
	WriteOK bdd.Node
	// SameUnread is the set of transitions leaving every unreadable
	// variable unchanged. Since W ⊆ R this is implied by WriteOK.
	SameUnread bdd.Node
	// Acts holds each action's compiled transition relation alongside its
	// declared cost annotation, in declaration order — the per-action
	// granularity WeightADD prices transitions at (Trans is their union).
	Acts []CompiledAction

	allowed    bdd.Node // WriteOK ∧ ValidTrans: every transition p could own
	unreadCube bdd.Node // cube of the unreadable variables' cur+next bits
	space      *symbolic.Space
}

// CompiledAction is one action's symbolic transition relation together with
// its declared cost annotation (0 when unannotated).
type CompiledAction struct {
	Name  string
	Cost  int64
	Trans bdd.Node
}

// Compiled is the symbolic form of a Def: everything the repair algorithms
// operate on.
type Compiled struct {
	Def   *Def
	Space *symbolic.Space
	Procs []*CompiledProc

	// Trans is δ_P: the union of all process transitions (without the
	// Definition-18 stutter; see WithStutter).
	Trans bdd.Node
	// Fault is the union of all fault transitions.
	Fault bdd.Node
	// FaultParts holds each fault action's transitions separately, for
	// disjunctively-partitioned image computation.
	FaultParts []bdd.Node

	Invariant bdd.Node // S
	BadStates bdd.Node // Sf_bs
	BadTrans  bdd.Node // Sf_bt
	Liveness  []CompiledLeadsTo
	// CostRules is the symbolic form of Def.CostRules: each rule's predicate
	// lowered to a transition relation (conjoined with ValidTrans).
	CostRules []CompiledCostRule

	// depAcyclic reports that the processes' write→read dependency graph
	// (an edge i→j, i ≠ j, when process i writes a variable process j
	// reads) has no cycle — the structural half of CyclicCore's acyclicity
	// certificate.
	depAcyclic bool
}

// CompiledCostRule is the symbolic form of one CostRule.
type CompiledCostRule struct {
	Cost  int64
	Trans bdd.Node
}

// Compile validates the definition and lowers it to BDDs in a fresh space.
// Because compilation is deterministic, two compiles of the same Def produce
// spaces with identical variable orders — the property the parallel engine
// relies on to migrate predicates between the owner and its worker clones.
func (d *Def) Compile() (*Compiled, error) {
	space, err := symbolic.New(d.Vars)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Def: d, Space: space, Trans: bdd.False, Fault: bdd.False}
	m := space.M

	// Compilation accumulates predicates across per-process compiles that
	// may each allocate heavily; slots keep the accumulators rooted through
	// collections, and every Compiled field ends up permanently rooted — the
	// Compiled lives as long as its manager.
	sc := m.Protect()
	defer sc.Release()
	trans := sc.Slot(bdd.False)
	fault := sc.Slot(bdd.False)

	for _, p := range d.Processes {
		cp, err := compileProcess(space, p)
		if err != nil {
			return nil, fmt.Errorf("program %s: %w", d.Name, err)
		}
		c.Procs = append(c.Procs, cp)
		trans.Set(m.Or(trans.Node(), cp.Trans))
	}
	c.Trans = m.Ref(trans.Node())
	c.depAcyclic = dependencyAcyclic(c.Procs)
	for i, fa := range d.Faults {
		tr, err := compileAction(space, fa, nil)
		if err != nil {
			return nil, fmt.Errorf("program %s: fault %d (%s): %w", d.Name, i, fa.Name, err)
		}
		fault.Set(m.Or(fault.Node(), tr))
		c.FaultParts = append(c.FaultParts, m.Ref(tr))
	}
	c.Fault = m.Ref(fault.Node())

	if c.Invariant, err = compilePred(space, d.Invariant, bdd.True); err != nil {
		return nil, fmt.Errorf("program %s: invariant: %w", d.Name, err)
	}
	c.Invariant = m.Ref(m.And(c.Invariant, space.ValidCur()))
	if c.BadStates, err = compilePred(space, d.BadStates, bdd.False); err != nil {
		return nil, fmt.Errorf("program %s: bad states: %w", d.Name, err)
	}
	c.BadStates = m.Ref(m.And(c.BadStates, space.ValidCur()))
	if c.BadTrans, err = compilePred(space, d.BadTrans, bdd.False); err != nil {
		return nil, fmt.Errorf("program %s: bad transitions: %w", d.Name, err)
	}
	c.BadTrans = m.Ref(m.And(c.BadTrans, space.ValidTrans()))
	for i, lt := range d.Liveness {
		from, err := compilePred(space, lt.From, bdd.False)
		if err != nil {
			return nil, fmt.Errorf("program %s: liveness %d (%s): %w", d.Name, i, lt.Name, err)
		}
		sc.Keep(from)
		to, err := compilePred(space, lt.To, bdd.False)
		if err != nil {
			return nil, fmt.Errorf("program %s: liveness %d (%s): %w", d.Name, i, lt.Name, err)
		}
		c.Liveness = append(c.Liveness, CompiledLeadsTo{
			Name: lt.Name,
			From: m.Ref(m.And(from, space.ValidCur())),
			To:   m.Ref(m.And(to, space.ValidCur())),
		})
	}
	for i, cr := range d.CostRules {
		if cr.Cost < 1 {
			return nil, fmt.Errorf("program %s: cost rule %d: cost %d must be positive", d.Name, i, cr.Cost)
		}
		pred, err := compilePred(space, cr.Pred, bdd.False)
		if err != nil {
			return nil, fmt.Errorf("program %s: cost rule %d: %w", d.Name, i, err)
		}
		c.CostRules = append(c.CostRules, CompiledCostRule{
			Cost:  cr.Cost,
			Trans: m.Ref(m.And(pred, space.ValidTrans())),
		})
	}
	return c, nil
}

// MustCompile is Compile but panics on error.
func (d *Def) MustCompile() *Compiled {
	c, err := d.Compile()
	if err != nil {
		panic(err)
	}
	return c
}

func compilePred(s *symbolic.Space, e expr.Expr, dflt bdd.Node) (bdd.Node, error) {
	if e == nil {
		return dflt, nil
	}
	return e.Compile(s)
}

func compileProcess(s *symbolic.Space, p *Process) (*CompiledProc, error) {
	cp := &CompiledProc{
		Name:  p.Name,
		Read:  make(map[string]bool, len(p.Read)),
		Write: make(map[string]bool, len(p.Write)),
		space: s,
	}
	for _, name := range p.Read {
		if s.VarByName(name) == nil {
			return nil, fmt.Errorf("process %s: unknown read variable %q", p.Name, name)
		}
		cp.Read[name] = true
	}
	for _, name := range p.Write {
		if s.VarByName(name) == nil {
			return nil, fmt.Errorf("process %s: unknown write variable %q", p.Name, name)
		}
		if !cp.Read[name] {
			return nil, fmt.Errorf("process %s: writes %q without reading it (W ⊆ R required)", p.Name, name)
		}
		cp.Write[name] = true
	}

	m := s.M
	var unreadLevels []int
	for _, v := range s.Vars {
		if !cp.Read[v.Name] {
			unreadLevels = append(unreadLevels, v.CurLevels()...)
			unreadLevels = append(unreadLevels, v.NextLevels()...)
		}
	}
	// CompiledProc fields share the manager's lifetime; root them for good.
	cp.WriteOK = m.Ref(s.AndEach(unchangedOutside(cp.Write)))
	cp.SameUnread = m.Ref(s.AndEach(unchangedOutside(cp.Read)))
	cp.allowed = m.Ref(m.And(cp.WriteOK, s.ValidTrans()))
	cp.unreadCube = m.Ref(m.Cube(unreadLevels))

	sc := m.Protect()
	defer sc.Release()
	trans := sc.Slot(bdd.False)
	for i, a := range p.Actions {
		tr, err := compileAction(s, a, cp)
		if err != nil {
			return nil, fmt.Errorf("process %s: action %d (%s): %w", p.Name, i, a.Name, err)
		}
		cp.Acts = append(cp.Acts, CompiledAction{Name: a.Name, Cost: a.Cost, Trans: m.Ref(tr)})
		trans.Set(m.Or(trans.Node(), tr))
	}
	cp.Trans = m.Ref(trans.Node())
	return cp, nil
}

// dependencyAcyclic reports whether the write→read dependency graph of procs
// is acyclic: process i precedes process j (i ≠ j) when i writes a variable
// j reads. Kahn's algorithm: the graph is acyclic iff repeatedly removing a
// process with no remaining predecessor removes them all.
func dependencyAcyclic(procs []*CompiledProc) bool {
	succ := make([][]int, len(procs))
	indeg := make([]int, len(procs))
	for i, pi := range procs {
		for j, pj := range procs {
			if i == j {
				continue
			}
			for v := range pi.Write {
				if pj.Read[v] {
					succ[i] = append(succ[i], j)
					indeg[j]++
					break
				}
			}
		}
	}
	var ready []int
	for j, d := range indeg {
		if d == 0 {
			ready = append(ready, j)
		}
	}
	removed := 0
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		removed++
		for _, j := range succ[i] {
			if indeg[j]--; indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	return removed == len(procs)
}

// compileAction lowers a guarded command to a transition predicate. When cp
// is non-nil the action is checked against the process's read/write
// restrictions; fault actions pass cp == nil and are unrestricted.
func compileAction(s *symbolic.Space, a Action, cp *CompiledProc) (bdd.Node, error) {
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	guard := bdd.True
	if a.Guard != nil {
		var err error
		if guard, err = a.Guard.Compile(s); err != nil {
			return bdd.False, err
		}
		sc.Keep(guard) // held across the whole updates + frame accumulation
		if cp != nil {
			for _, name := range a.Guard.Vars(nil) {
				if !cp.Read[name] {
					return bdd.False, fmt.Errorf("guard reads %q outside read set", name)
				}
			}
		}
	}

	// Each update's relation waits for the later ones to compile; the fold
	// below conjoins it in its variable's place in the order.
	assigned := make(map[string]bdd.Node, len(a.Updates))
	for _, u := range a.Updates {
		v := s.VarByName(u.Var)
		if v == nil {
			return bdd.False, fmt.Errorf("update targets unknown variable %q", u.Var)
		}
		if _, dup := assigned[u.Var]; dup {
			return bdd.False, fmt.Errorf("variable %q assigned twice", u.Var)
		}
		if cp != nil && !cp.Write[u.Var] {
			return bdd.False, fmt.Errorf("update writes %q outside write set", u.Var)
		}
		switch u.Kind {
		case SetConst:
			if u.Val < 0 || u.Val >= v.Domain {
				return bdd.False, fmt.Errorf("value %d outside domain of %q", u.Val, u.Var)
			}
			assigned[u.Var] = sc.Keep(v.NextEqConst(u.Val))
		case CopyVar:
			w := s.VarByName(u.From)
			if w == nil {
				return bdd.False, fmt.Errorf("update copies unknown variable %q", u.From)
			}
			if cp != nil && !cp.Read[u.From] {
				return bdd.False, fmt.Errorf("update reads %q outside read set", u.From)
			}
			assigned[u.Var] = sc.Keep(v.NextEq(w))
		case ChooseConst:
			if len(u.Among) == 0 {
				return bdd.False, fmt.Errorf("empty choice for %q", u.Var)
			}
			choice := bdd.False
			for _, val := range u.Among {
				if val < 0 || val >= v.Domain {
					return bdd.False, fmt.Errorf("value %d outside domain of %q", val, u.Var)
				}
				choice = m.Or(choice, v.NextEqConst(val))
			}
			assigned[u.Var] = sc.Keep(choice)
		default:
			return bdd.False, fmt.Errorf("unknown update kind %d", u.Kind)
		}
	}

	// Frame: variables without an update stay unchanged.
	rel := s.AndEach(func(v *symbolic.Var) bdd.Node {
		if u, ok := assigned[v.Name]; ok {
			return u
		}
		return v.Unchanged()
	})
	// The small guard meets ValidTrans before the relation: on the case
	// studies this order allocates the fewest intermediate nodes.
	return m.AndN(guard, s.ValidTrans(), rel), nil
}

// unchangedOutside is the per-variable predicate of a frame for
// Space.AndEach: v′ = v for every variable outside set, no constraint on
// the variables in it.
func unchangedOutside(set map[string]bool) func(*symbolic.Var) bdd.Node {
	return func(v *symbolic.Var) bdd.Node {
		if set[v.Name] {
			return bdd.True
		}
		return v.Unchanged()
	}
}

// Group computes the read-restriction group closure group_j(δ): the union of
// the groups of all transitions in δ (Section III-B). Only the write-legal,
// unreadable-preserving part of δ contributes (the rest could never belong
// to this process).
func (p *CompiledProc) Group(delta bdd.Node) bdd.Node {
	m := p.space.M
	core := m.And(delta, p.SameUnread)
	projected := m.Exists(core, p.unreadCube)
	return m.AndN(projected, p.SameUnread, p.space.ValidTrans())
}

// MaxRealizableSubset returns the largest subset of delta that process p can
// realize: transitions that respect the write restriction and whose entire
// group is contained in delta. This is the closed form of the Algorithm-2
// inner loop (DESIGN.md §4): with allowed = WriteOK ∧ ValidTrans and
// cand = delta ∧ allowed, the result is cand − ∃unread.(allowed − cand).
// Proof: a candidate survives iff no allowed member of its group is missing
// from cand, so the result is cand − Group(allowed − cand), where Group(x) =
// (∃unread. x ∧ SameUnread) ∧ SameUnread ∧ ValidTrans. W ⊆ R gives
// WriteOK ⊆ SameUnread, so allowed − cand ⊆ SameUnread and the inner
// conjunction changes nothing; cand ⊆ SameUnread ∧ ValidTrans, so the outer
// one removes nothing more from cand. Same set, hence the same node.
//
// cand itself is never built: allowed ∧ ¬(delta ∧ allowed) = allowed ∧
// ¬delta, so the result is delta ∧ allowed ∧ ¬∃unread.(allowed ∧ ¬delta),
// two fused products (bdd.Manager.DiffExists, then AndDiff).
func (p *CompiledProc) MaxRealizableSubset(delta bdd.Node) bdd.Node {
	m := p.space.M
	return m.AndDiff(delta, p.allowed, m.DiffExists(p.allowed, delta, p.unreadCube))
}

// Realizable reports whether delta is realizable by process p: write-legal
// and closed under grouping (Definition 19).
func (p *CompiledProc) Realizable(delta bdd.Node) bool {
	m := p.space.M
	d := m.And(delta, p.space.ValidTrans())
	if !m.Implies(d, p.WriteOK) {
		return false
	}
	return m.Implies(p.Group(d), d)
}

// ProcParts returns the per-process transition relations, each optionally
// conjoined with restrict, as partitions for image computation.
func (c *Compiled) ProcParts(restrict bdd.Node) []bdd.Node {
	m := c.Space.M
	out := make([]bdd.Node, 0, len(c.Procs))
	for _, p := range c.Procs {
		out = append(out, m.And(p.Trans, restrict))
	}
	return out
}

// PartsWithFaults returns the per-process transition relations (conjoined
// with restrict) followed by the per-fault-action relations — the full
// disjunctive partitioning of δ_P ∪ f.
func (c *Compiled) PartsWithFaults(restrict bdd.Node) []bdd.Node {
	return append(c.ProcParts(restrict), c.FaultParts...)
}

// Deadlocks returns the states (within ValidCur) that have no outgoing
// transition in delta.
func (c *Compiled) Deadlocks(delta bdd.Node) bdd.Node {
	m := c.Space.M
	hasNext := m.AndExists(delta, c.Space.ValidTrans(), c.Space.NextCube())
	return m.Diff(c.Space.ValidCur(), hasNext)
}

// WithStutter returns delta plus self-loops at its deadlock states — the
// Definition-18 semantics of a distributed program's transition relation.
func (c *Compiled) WithStutter(delta bdd.Node) bdd.Node {
	m := c.Space.M
	return m.Or(delta, m.And(c.Deadlocks(delta), c.Space.Identity()))
}

// WeightADD builds the transition-weight ADD of the program: a function
// assigning every valid transition the minimum weight any source prices it
// at — an action's cost annotation (possibly overridden by resolve), a cost
// rule, or dflt for transitions no source covers. resolve, when non-nil,
// receives each process/action pair with its declared annotation (0 when
// unannotated) and returns the effective weight, or 0 to fall through to the
// declared annotation; dflt below 1 means 1.
//
// The construction runs on the compiled program's own manager; the caller
// roots the result.
func (c *Compiled) WeightADD(resolve func(proc, action string, declared int64) int64, dflt int64) bdd.Node {
	m := c.Space.M
	if dflt < 1 {
		dflt = 1
	}
	sc := m.Protect()
	defer sc.Release()
	inf := m.AddConst(bdd.AddInf)
	w := sc.Slot(inf)
	price := func(rel bdd.Node, weight int64) {
		if rel == bdd.False || weight <= 0 {
			return
		}
		w.Set(m.AddMin(w.Node(), m.ITE(rel, m.AddConst(weight), inf)))
	}
	for _, p := range c.Procs {
		for _, a := range p.Acts {
			weight := a.Cost
			if resolve != nil {
				if r := resolve(p.Name, a.Name, a.Cost); r > 0 {
					weight = r
				}
			}
			price(a.Trans, weight)
		}
	}
	for _, r := range c.CostRules {
		price(r.Trans, r.Cost)
	}
	// Transitions no source priced carry the default weight, so the result
	// is finite on every valid transition.
	return m.ITE(m.Threshold(w.Node(), bdd.AddInf), m.AddConst(dflt), w.Node())
}

// GroupMinCost is the weighted refinement of the Step-2 group machinery: the
// per-group cost projection of delta under the weight ADD w. The result is
// an ADD over the process's readable variables assigning to each
// read-restriction group the cheapest weight of any member present in delta,
// and +∞ where delta contributes no member. Sliced into cost classes with
// the manager's Threshold (and expanded back to transitions via SameUnread ∧
// ValidTrans, the Group expansion), it lets cost-aware repair remove or keep
// whole groups ordered by what their cheapest member costs.
func (p *CompiledProc) GroupMinCost(delta, w bdd.Node) bdd.Node {
	m := p.space.M
	sc := m.Protect()
	defer sc.Release()
	core := sc.Keep(m.And(delta, p.SameUnread))
	priced := sc.Keep(m.ITE(core, w, m.AddConst(bdd.AddInf)))
	return m.MinAbstract(priced, p.unreadCube)
}

// GroupExpand maps a predicate over the process's readable variables (such
// as a cost class of GroupMinCost) back to the full transition sets of the
// groups it selects — the second half of the Group operator, with the
// projection supplied by the caller.
func (p *CompiledProc) GroupExpand(classPred bdd.Node) bdd.Node {
	m := p.space.M
	return m.AndN(classPred, p.SameUnread, p.space.ValidTrans())
}

// ProgramRealizable reports whether delta (without stutter) is realizable by
// the whole program per Definition 20: it decomposes into per-process
// realizable transition sets.
func (c *Compiled) ProgramRealizable(delta bdd.Node) bool {
	m := c.Space.M
	sc := m.Protect()
	defer sc.Release()
	d := sc.Keep(m.And(delta, c.Space.ValidTrans()))
	union := sc.Slot(bdd.False)
	for _, p := range c.Procs {
		union.Set(m.Or(union.Node(), p.MaxRealizableSubset(d)))
	}
	return m.Implies(d, union.Node())
}
