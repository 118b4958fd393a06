// Package repro is a reproduction of "Lazy Repair for Addition of
// Fault-Tolerance to Distributed Programs" (Roohitavaf, Lin, Kulkarni,
// IPPS 2016): a symbolic model-repair toolkit that revises fault-intolerant
// distributed programs into masking fault-tolerant ones while respecting the
// read/write realizability constraints of distributed computation.
//
// The public API wraps the internal engine:
//
//   - Define a distributed program (variables, processes with read/write
//     restrictions and guarded-command actions, fault actions, invariant,
//     safety specification) with the Def / Process / Action types and the
//     expression constructors re-exported from internal/expr.
//   - Repair it with Repair, the single entry point: the algorithm (LazyAlg,
//     the paper's two-step Algorithm 1, or CautiousAlg, the prior tool's
//     baseline), worker budget, timeout, and logging are functional options.
//   - Verify the output independently against the paper's definitions.
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package repro

import (
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/parse"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/symbolic"
	"repro/internal/verify"
	"repro/internal/witness"
)

// Expr is a boolean expression over the program's variables, used for
// guards, invariants, and safety specifications.
type Expr = expr.Expr

// Expression constructors, re-exported from the expression language.
var (
	// True and False are the constant expressions.
	True, False = expr.True, expr.False
	// Eq returns "name = val"; Ne its negation.
	Eq, Ne = expr.Eq, expr.Ne
	// EqVar returns "a = b" over two variables; NeVar its negation.
	EqVar, NeVar = expr.EqVar, expr.NeVar
	// Lt returns "name < val".
	Lt = expr.Lt
	// NextEq returns "name' = val"; NextEqVar returns "a' = b".
	NextEq, NextEqVar = expr.NextEq, expr.NextEqVar
	// Changed returns "name' ≠ name"; Unchanged its negation.
	Changed, Unchanged = expr.Changed, expr.Unchanged
	// And, Or, Not and Implies are the boolean connectives.
	And, Or, Not, Implies = expr.And, expr.Or, expr.Not, expr.Implies
)

// Re-exported model-definition types.
type (
	// Def is a complete repair-problem instance: a distributed program,
	// its faults, its invariant, and its safety specification.
	Def = program.Def
	// Process declares one process with read/write restrictions and actions.
	Process = program.Process
	// Action is a guarded command.
	Action = program.Action
	// Update is one assignment performed by an Action.
	Update = program.Update
	// VarSpec declares a finite-domain variable.
	VarSpec = symbolic.VarSpec
	// Compiled is the symbolic (BDD) form of a Def.
	Compiled = program.Compiled

	// Options tune the repair algorithms.
	Options = repair.Options
	// Result is a synthesized masking fault-tolerant program.
	Result = repair.Result
	// Stats reports where the synthesis time went (the paper's table columns).
	Stats = repair.Stats
	// Report is the verifier's outcome.
	Report = verify.Report
	// Trace is a concrete replayable witness: a recovery demonstration in
	// Result.Witnesses (see WithWitnesses) or a failure trace attached to a
	// verifier check.
	Trace = witness.Trace
	// DeadlockError decorates ErrNoConvergence with a certified trace to a
	// deadlock state the repair could not eliminate (use errors.As).
	DeadlockError = repair.DeadlockError
	// BudgetError reports that a synthesis exceeded the node budget set with
	// EngineConfig.NodeBudget (use errors.As).
	BudgetError = bdd.BudgetError
)

// Update constructors, re-exported.
var (
	// Set returns the update v := val.
	Set = program.Set
	// Copy returns the update v := from.
	Copy = program.Copy
	// Choose returns the nondeterministic update v := one of the given values.
	Choose = program.Choose
)

// Repair errors, re-exported.
var (
	// ErrNotRepairable reports that no masking fault-tolerant program exists
	// under the algorithm's heuristics.
	ErrNotRepairable = repair.ErrNotRepairable
	// ErrNoConvergence reports that the outer repair loop hit its bound.
	ErrNoConvergence = repair.ErrNoConvergence
)

// DefaultOptions returns the configuration used in the paper's headline
// experiments.
func DefaultOptions() Options { return repair.DefaultOptions() }

// Certify replays a witness trace step-by-step against the compiled program,
// independently of the symbolic fixpoints that produced it: every step must
// be a program transition of trans or a fault transition, and the trace's
// claim (safety violation, deadlock, livelock, recovery, unrealizability)
// must actually hold relative to inv. A nil return makes the trace a
// certificate.
func Certify(c *Compiled, trans, inv bdd.Node, tr *Trace) error {
	return witness.Certify(c, trans, inv, tr)
}

// ParseProgram reads a repair-problem definition from the declarative text
// format (see internal/parse for the grammar and cmd/ftrepair -file for CLI
// use).
func ParseProgram(src string) (*Def, error) { return parse.Program(src) }

// CaseStudy builds one of the benchmark instances by name: "ba" (Byzantine
// agreement with n non-generals), "bafs" (Byzantine agreement with fail-stop
// faults), "sc" (stabilizing chain of n cells), "ring" (Dijkstra's K-state
// token ring), or "tmr" (triple modular redundancy; n ignored).
func CaseStudy(name string, n int) (*Def, error) { return core.CaseStudy(name, n) }

// CountStates returns the number of states in a state predicate of the
// compiled program (e.g. a Result's Invariant or FaultSpan).
func CountStates(c *Compiled, set bdd.Node) float64 { return c.Space.CountStates(set) }

// CountTransitions returns the number of transitions in a transition
// predicate of the compiled program (e.g. a Result's Trans).
func CountTransitions(c *Compiled, delta bdd.Node) float64 {
	return c.Space.CountTransitions(delta)
}

// Intersects reports whether two predicates of the compiled program share at
// least one assignment. It panics if either Node is not from c's manager:
// Node values are plain indices, so a foreign Node would silently test an
// unrelated predicate.
func Intersects(c *Compiled, a, b bdd.Node) bool {
	c.Space.M.CheckNode(a)
	c.Space.M.CheckNode(b)
	return c.Space.M.And(a, b) != bdd.False
}
