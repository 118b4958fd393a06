// Package expr provides a small boolean expression language over the
// finite-domain variables of a symbolic.Space. Expressions describe guards,
// invariants, and safety specifications the way the paper writes them
// (e.g. "d.j = ⊥ ∧ f.j = 0"), and compile to BDDs.
//
// Expressions may refer to both current-state values (Eq, EqVar, Lt) and the
// relationship between current and next state (NextEq, Changed, Unchanged),
// so the same language expresses state predicates and transition predicates
// such as the bad-transition part of a safety specification.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/symbolic"
)

// Expr is a boolean expression over the variables of a Space.
type Expr interface {
	// Compile lowers the expression to a BDD in the given space.
	Compile(s *symbolic.Space) (bdd.Node, error)
	// String renders the expression in a human-readable form.
	String() string
	// Vars appends the names of variables the expression reads to dst.
	Vars(dst []string) []string
}

// --- constants --------------------------------------------------------------

type constExpr bool

// True is the always-true expression.
var True Expr = constExpr(true)

// False is the always-false expression.
var False Expr = constExpr(false)

func (c constExpr) Compile(*symbolic.Space) (bdd.Node, error) {
	if bool(c) {
		return bdd.True, nil
	}
	return bdd.False, nil
}

func (c constExpr) String() string {
	if bool(c) {
		return "true"
	}
	return "false"
}

func (c constExpr) Vars(dst []string) []string { return dst }

// --- atomic predicates ------------------------------------------------------

type eqConst struct {
	name string
	val  int
}

// Eq returns the predicate "name = val" on the current state.
func Eq(name string, val int) Expr { return eqConst{name, val} }

// Ne returns the predicate "name ≠ val" on the current state.
func Ne(name string, val int) Expr { return Not(Eq(name, val)) }

func (e eqConst) Compile(s *symbolic.Space) (bdd.Node, error) {
	v := s.VarByName(e.name)
	if v == nil {
		return bdd.False, fmt.Errorf("expr: unknown variable %q", e.name)
	}
	if e.val < 0 || e.val >= v.Domain {
		return bdd.False, fmt.Errorf("expr: value %d outside domain of %q", e.val, e.name)
	}
	return v.EqConst(e.val), nil
}

func (e eqConst) String() string             { return fmt.Sprintf("%s=%d", e.name, e.val) }
func (e eqConst) Vars(dst []string) []string { return append(dst, e.name) }

type eqVar struct {
	a, b string
}

// EqVar returns the predicate "a = b" comparing two variables' current values.
func EqVar(a, b string) Expr { return eqVar{a, b} }

// NeVar returns the predicate "a ≠ b".
func NeVar(a, b string) Expr { return Not(EqVar(a, b)) }

func (e eqVar) Compile(s *symbolic.Space) (bdd.Node, error) {
	va, vb := s.VarByName(e.a), s.VarByName(e.b)
	if va == nil {
		return bdd.False, fmt.Errorf("expr: unknown variable %q", e.a)
	}
	if vb == nil {
		return bdd.False, fmt.Errorf("expr: unknown variable %q", e.b)
	}
	return va.Eq(vb), nil
}

func (e eqVar) String() string             { return fmt.Sprintf("%s=%s", e.a, e.b) }
func (e eqVar) Vars(dst []string) []string { return append(dst, e.a, e.b) }

type ltConst struct {
	name string
	val  int
}

// Lt returns the predicate "name < val" on the current state.
func Lt(name string, val int) Expr { return ltConst{name, val} }

func (e ltConst) Compile(s *symbolic.Space) (bdd.Node, error) {
	v := s.VarByName(e.name)
	if v == nil {
		return bdd.False, fmt.Errorf("expr: unknown variable %q", e.name)
	}
	out := bdd.False
	for val := 0; val < e.val && val < v.Domain; val++ {
		out = s.M.Or(out, v.EqConst(val))
	}
	return out, nil
}

func (e ltConst) String() string             { return fmt.Sprintf("%s<%d", e.name, e.val) }
func (e ltConst) Vars(dst []string) []string { return append(dst, e.name) }

// --- transition-level predicates --------------------------------------------

type nextEqConst struct {
	name string
	val  int
}

// NextEq returns the transition predicate "name' = val" on the next state.
func NextEq(name string, val int) Expr { return nextEqConst{name, val} }

func (e nextEqConst) Compile(s *symbolic.Space) (bdd.Node, error) {
	v := s.VarByName(e.name)
	if v == nil {
		return bdd.False, fmt.Errorf("expr: unknown variable %q", e.name)
	}
	if e.val < 0 || e.val >= v.Domain {
		return bdd.False, fmt.Errorf("expr: value %d outside domain of %q", e.val, e.name)
	}
	return v.NextEqConst(e.val), nil
}

func (e nextEqConst) String() string             { return fmt.Sprintf("%s'=%d", e.name, e.val) }
func (e nextEqConst) Vars(dst []string) []string { return append(dst, e.name) }

type nextEqVar struct {
	a, b string
}

// NextEqVar returns the transition predicate "a' = b": after the transition,
// a holds b's pre-transition value (the relational form of the assignment
// a := b).
func NextEqVar(a, b string) Expr { return nextEqVar{a, b} }

func (e nextEqVar) Compile(s *symbolic.Space) (bdd.Node, error) {
	va, vb := s.VarByName(e.a), s.VarByName(e.b)
	if va == nil {
		return bdd.False, fmt.Errorf("expr: unknown variable %q", e.a)
	}
	if vb == nil {
		return bdd.False, fmt.Errorf("expr: unknown variable %q", e.b)
	}
	return va.NextEq(vb), nil
}

func (e nextEqVar) String() string             { return fmt.Sprintf("%s'=%s", e.a, e.b) }
func (e nextEqVar) Vars(dst []string) []string { return append(dst, e.a, e.b) }

type changed struct {
	name string
}

// Changed returns the transition predicate "name' ≠ name".
func Changed(name string) Expr { return changed{name} }

// Unchanged returns the transition predicate "name' = name".
func Unchanged(name string) Expr { return Not(Changed(name)) }

func (e changed) Compile(s *symbolic.Space) (bdd.Node, error) {
	v := s.VarByName(e.name)
	if v == nil {
		return bdd.False, fmt.Errorf("expr: unknown variable %q", e.name)
	}
	return s.M.Not(v.Unchanged()), nil
}

func (e changed) String() string             { return fmt.Sprintf("changed(%s)", e.name) }
func (e changed) Vars(dst []string) []string { return append(dst, e.name) }

// --- connectives -------------------------------------------------------------

type andExpr []Expr

// And returns the conjunction of the given expressions (True if none).
func And(es ...Expr) Expr { return andExpr(es) }

func (e andExpr) Compile(s *symbolic.Space) (bdd.Node, error) {
	return foldRight(s, e, s.M.And, bdd.True)
}

func (e andExpr) String() string { return joinExprs([]Expr(e), " ∧ ", "true") }

func (e andExpr) Vars(dst []string) []string {
	for _, sub := range e {
		dst = sub.Vars(dst)
	}
	return dst
}

type orExpr []Expr

// Or returns the disjunction of the given expressions (False if none).
func Or(es ...Expr) Expr { return orExpr(es) }

func (e orExpr) Compile(s *symbolic.Space) (bdd.Node, error) {
	return foldRight(s, e, s.M.Or, bdd.False)
}

func (e orExpr) String() string { return joinExprs([]Expr(e), " ∨ ", "false") }

func (e orExpr) Vars(dst []string) []string {
	for _, sub := range e {
		dst = sub.Vars(dst)
	}
	return dst
}

type notExpr struct{ e Expr }

// Not returns the negation of e.
func Not(e Expr) Expr { return notExpr{e} }

func (e notExpr) Compile(s *symbolic.Space) (bdd.Node, error) {
	n, err := e.e.Compile(s)
	if err != nil {
		return bdd.False, err
	}
	return s.M.Not(n), nil
}

func (e notExpr) String() string             { return "¬(" + e.e.String() + ")" }
func (e notExpr) Vars(dst []string) []string { return e.e.Vars(dst) }

type impliesExpr struct{ a, b Expr }

// Implies returns the implication a ⇒ b.
func Implies(a, b Expr) Expr { return impliesExpr{a, b} }

func (e impliesExpr) Compile(s *symbolic.Space) (bdd.Node, error) {
	na, err := e.a.Compile(s)
	if err != nil {
		return bdd.False, err
	}
	s.M.Ref(na) // held across the (possibly large) compile of e.b
	defer s.M.Deref(na)
	nb, err := e.b.Compile(s)
	if err != nil {
		return bdd.False, err
	}
	return s.M.Imp(na, nb), nil
}

func (e impliesExpr) String() string { return "(" + e.a.String() + " ⇒ " + e.b.String() + ")" }

func (e impliesExpr) Vars(dst []string) []string { return e.b.Vars(e.a.Vars(dst)) }

// foldRight compiles every operand, then combines them from the last
// upward with op, starting from unit. Operands are written the way models
// declare their variables, so the last one usually sits deepest in the
// order, and combining it first stacks each earlier operand's nodes on top
// of the accumulator; the left fold re-copies the accumulator at every step
// and leaves those copies behind (DESIGN.md §14, "Building predicates").
func foldRight(s *symbolic.Space, es []Expr, op func(f, g bdd.Node) bdd.Node, unit bdd.Node) (bdd.Node, error) {
	// Each compiled operand waits for the later ones to compile, which may
	// allocate heavily, so it is rooted until the fold.
	sc := s.M.Protect()
	defer sc.Release()
	ns := make([]bdd.Node, len(es))
	for i, sub := range es {
		n, err := sub.Compile(s)
		if err != nil {
			return bdd.False, err
		}
		ns[i] = sc.Keep(n)
	}
	acc := unit
	for i := len(ns) - 1; i >= 0; i-- {
		acc = op(ns[i], acc)
	}
	return acc, nil
}

func joinExprs(es []Expr, sep, empty string) string {
	if len(es) == 0 {
		return empty
	}
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}
