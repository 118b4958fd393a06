// Package verify independently checks the output of the repair algorithms:
// that the synthesized program is masking fault-tolerant to the original
// specification from the repaired invariant (Definition 15), that it adds no
// new behavior inside the invariant (the problem statement of Section II),
// and that its transitions are realizable by the program's processes under
// the read/write restrictions (Definitions 19 and 20).
//
// The checks are deliberately written against the definitions rather than
// reusing the algorithms' internal fixpoints, so they serve as an oracle in
// tests.
package verify

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/witness"
)

// Backend names a verification engine. BDDs are the only one, so Backend,
// ParseBackend and ResultBackendEngine select nothing; they remain only
// because bench/trace.go and internal/core compile against them.
type Backend string

// ParseBackend accepts "" and "bdd" and rejects every other name. Only
// bench/trace.go and core.Run call it.
func ParseBackend(s string) (Backend, error) {
	if s != "" && s != "bdd" {
		return "", fmt.Errorf("verify: unknown backend %q (want \"bdd\")", s)
	}
	return "bdd", nil
}

// ResultBackendEngine is Result; the backend is ignored. Only bench/trace.go
// calls it.
func ResultBackendEngine(ctx context.Context, e *program.Engine, res *repair.Result, _ Backend, withWitness bool) (*Report, error) {
	return Result(ctx, e, res, withWitness)
}

// Check is one verified property. The JSON tags make reports embeddable in
// the machine-readable outputs (ftrepair -json, the ftrepaird daemon).
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
	// Warning marks informational checks that do not affect Report.OK:
	// properties the paper's definitions do not require but a model author
	// may care about (e.g. progress lost to new invariant deadlocks).
	Warning bool `json:"warning,omitempty"`
	// Witness, when non-nil, is a concrete replayable trace demonstrating
	// the failure (see Result). It is attached only to failed checks with a
	// trace-shaped failure mode: reachable bad states/transitions,
	// deadlocks, livelocks, and unrealizable transitions.
	Witness *witness.Trace `json:"witness,omitempty"`
}

// Report is the outcome of verifying a repair result.
type Report struct {
	Checks []Check
	// SAT is always nil. It remains only because bench/trace.go copies it
	// into core.Outcome.SATStats.
	SAT *struct{} `json:"sat,omitempty"`
}

// OK reports whether every check passed.
func (r *Report) OK() bool {
	for _, c := range r.Checks {
		if !c.OK && !c.Warning {
			return false
		}
	}
	return true
}

// Failures returns the names of failed checks.
func (r *Report) Failures() []string {
	var out []string
	for _, c := range r.Checks {
		if !c.OK && !c.Warning {
			out = append(out, c.Name)
		}
	}
	return out
}

// String renders the report, one check per line.
func (r *Report) String() string {
	var sb strings.Builder
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
			if c.Warning {
				mark = "warn"
			}
		}
		fmt.Fprintf(&sb, "%s %-38s %s\n", mark, c.Name, c.Detail)
	}
	return sb.String()
}

func (r *Report) add(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: detail})
}

// failed reports whether the named check exists and did not pass.
func (r *Report) failed(name string) bool {
	for _, c := range r.Checks {
		if c.Name == name {
			return !c.OK
		}
	}
	return false
}

// attach stores tr on the named check if that check failed. tr may be nil
// (extraction found no reachable witness), in which case nothing changes.
func (r *Report) attach(name string, tr *witness.Trace) {
	if tr == nil {
		return
	}
	for i := range r.Checks {
		if r.Checks[i].Name == name && !r.Checks[i].OK {
			tr.Check = name
			r.Checks[i].Witness = tr
			return
		}
	}
}

// Result verifies res against the compiled program e.C it was synthesized
// from, with the per-process predicates (the maximal realizable subsets
// every safety and realizability check builds on) split across the
// engine's workers. The checks themselves do not depend on the fan-out —
// canonical BDDs make it invisible to the verdict. With withWitness set,
// every failed check with a trace-shaped failure mode carries a concrete
// Trace that witness.Certify confirms. Extraction runs serially on the
// engine's owner manager from the same canonical fixpoint sets the checks
// computed, so the attached witnesses are byte-identical across worker
// counts. The error is non-nil on context cancellation and when a fan-out
// fails (a worker clone over its node budget, or one that fails to
// compile).
func Result(ctx context.Context, e *program.Engine, res *repair.Result, withWitness bool) (*Report, error) {
	c := e.C
	m := c.Space.M
	s := c.Space
	rep := &Report{}
	sc := m.Protect()
	defer sc.Release()

	inv, span, trans := res.Invariant, res.FaultSpan, res.Trans
	sc.Keep(inv)
	sc.Keep(span)
	valid := s.ValidTrans()
	trans = sc.Keep(m.And(trans, valid))

	// --- problem-statement conditions (Section II) -----------------------
	rep.add("invariant nonempty", inv != bdd.False, "")
	rep.add("invariant subset of original", m.Implies(inv, c.Invariant), "S' ⊆ S")
	newBehavior := m.AndDiff(m.And(trans, inv), s.Prime(inv), c.Trans)
	rep.add("no new behavior inside invariant", newBehavior == bdd.False, "δ'|S' ⊆ δ|S'")

	// --- closure ----------------------------------------------------------
	escInv := m.AndDiff(trans, inv, s.Prime(inv))
	rep.add("invariant closed in program", escInv == bdd.False, "")
	rep.add("invariant inside fault-span", m.Implies(inv, span), "S' ⊆ T'")
	combined := sc.Keep(m.Or(trans, c.Fault))
	escSpan := m.AndDiff(combined, span, s.Prime(span))
	rep.add("fault-span closed in program∪fault", escSpan == bdd.False, "")

	// --- safety under faults ----------------------------------------------
	// Partition the program's transitions by process for image computation;
	// every realizable δ' is covered by its per-process maximal realizable
	// subsets, and faults are partitioned per action.
	procParts, err := e.Split(ctx, trans)
	if err != nil {
		return nil, err
	}
	for _, p := range procParts {
		sc.Keep(p) // the per-process parts feed every later check
	}
	reach, err := e.ReachableParts(ctx, inv, append(append([]bdd.Node{}, procParts...), c.FaultParts...))
	if err != nil {
		return nil, err
	}
	sc.Keep(reach)
	rep.add("reachable within fault-span", m.Implies(reach, span), "")
	badReach := m.And(reach, c.BadStates)
	rep.add("no reachable bad state", badReach == bdd.False, "")
	badStep := m.AndN(combined, reach, c.BadTrans)
	rep.add("no reachable bad transition", badStep == bdd.False, "")

	// --- recovery (the liveness half of masking) ---------------------------
	outside := sc.Keep(m.Diff(span, inv))
	noOut := sc.Keep(m.Diff(outside, src(c, trans)))
	rep.add("no deadlock outside invariant", noOut == bdd.False,
		fmt.Sprintf("%g stuck state(s)", s.CountStates(noOut)))
	// Greatest fixpoint: states in T'−S' from which some program-only path
	// stays outside the invariant forever (program.CyclicCore — the one GFP
	// loop shared with the repair algorithms' cycle analysis).
	cyclic := sc.Keep(program.CyclicCore(c, procParts, outside))
	rep.add("no livelock outside invariant", cyclic == bdd.False,
		fmt.Sprintf("%g state(s) on non-recovering paths", s.CountStates(cyclic)))
	// New finite computations: invariant states deadlocked now but not
	// before. Definition 5 permits finite maximal computations and the
	// instances carry no liveness specification, so this is informational
	// (it reports progress the repair traded away).
	origDeadlock := c.Deadlocks(c.Trans)
	newDeadlock := m.AndN(inv, m.Diff(s.ValidCur(), src(c, trans)), m.Not(origDeadlock))
	rep.Checks = append(rep.Checks, Check{
		Name:    "no new deadlock inside invariant",
		OK:      newDeadlock == bdd.False,
		Detail:  fmt.Sprintf("%g state(s) rest where the original program moved", s.CountStates(newDeadlock)),
		Warning: true,
	})

	// --- liveness (Definition 8, if the spec declares leads-to properties) -
	// L ↝ T holds from S' iff every program computation that visits a
	// reachable L-state later visits a T-state. With finite maximal
	// computations this is the least fixpoint "must reach T": a state is
	// good iff it is in T, or it has a successor and all its successors are
	// good. (Checked fault-free, per Definition 10's "computations of P".)
	if len(c.Liveness) > 0 {
		progReach, err := e.ReachableParts(ctx, inv, procParts)
		if err != nil {
			return nil, err
		}
		sc.Keep(progReach)
		hasSucc := sc.Keep(src(c, trans))
		for _, lt := range c.Liveness {
			goodS := sc.Slot(m.And(lt.To, s.ValidCur()))
			for {
				escapes := src(c, m.And(trans, m.Not(s.Prime(goodS.Node()))))
				next := m.Or(goodS.Node(), m.And(hasSucc, m.Not(escapes)))
				if next == goodS.Node() {
					break
				}
				goodS.Set(next)
			}
			pending := m.AndN(progReach, lt.From, m.Not(goodS.Node()))
			name := lt.Name
			if name == "" {
				name = "leads-to"
			}
			rep.add("liveness "+name, pending == bdd.False,
				fmt.Sprintf("%g reachable L-state(s) that may never reach T", s.CountStates(pending)))
		}
	}

	// --- realizability (Definitions 19 and 20) -----------------------------
	unionS := sc.Slot(bdd.False)
	for j, p := range c.Procs {
		part := procParts[j]
		if !p.Realizable(part) {
			rep.add("process "+p.Name+" subset realizable", false, "")
		}
		unionS.Set(m.Or(unionS.Node(), part))
	}
	rep.add("transitions decompose into processes", m.Implies(trans, unionS.Node()),
		"every transition belongs to a complete group of some process")

	// --- witnesses ---------------------------------------------------------
	// Extraction reuses the canonical sets computed above (the stuck and
	// cyclic states) and runs serially, so the same model and result yield
	// byte-identical traces regardless of the engine's worker count.
	if withWitness {
		x := witness.New(c)
		// Each failing safety check gets its own counterexample, aimed at
		// its kind of violation.
		if rep.failed("no reachable bad state") {
			tr, werr := x.BadState(ctx, trans, inv)
			if werr != nil {
				return nil, werr
			}
			rep.attach("no reachable bad state", tr)
		}
		if rep.failed("no reachable bad transition") {
			tr, werr := x.BadTransition(ctx, trans, inv)
			if werr != nil {
				return nil, werr
			}
			rep.attach("no reachable bad transition", tr)
		}
		if rep.failed("no deadlock outside invariant") {
			tr, werr := x.Deadlock(ctx, trans, inv, noOut)
			if werr != nil {
				return nil, werr
			}
			rep.attach("no deadlock outside invariant", tr)
		}
		if rep.failed("no livelock outside invariant") {
			tr, werr := x.Livelock(ctx, trans, inv, cyclic)
			if werr != nil {
				return nil, werr
			}
			rep.attach("no livelock outside invariant", tr)
		}
		if rep.failed("transitions decompose into processes") {
			tr, werr := x.Unrealizable(ctx, trans)
			if werr != nil {
				return nil, werr
			}
			rep.attach("transitions decompose into processes", tr)
		}
	}

	return rep, nil
}

func src(c *program.Compiled, delta bdd.Node) bdd.Node {
	m := c.Space.M
	return m.AndExists(delta, c.Space.ValidTrans(), c.Space.NextCube())
}
