package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/internal/program"
	"repro/internal/repair"
)

// defKey computes the content address of a repair job: a SHA-256 over a
// canonical serialization of the parsed program.Def plus the algorithm and
// the repair options that affect the result. Two submissions with the same
// key are guaranteed to describe the same synthesis problem, regardless of
// how they were written down (.ftr text with different whitespace/comments,
// a built-in case study, or the Go API), so the result cache and in-flight
// deduplication can serve one from the other.
//
// Canonical form: every component is written with an explicit kind tag and a
// length-delimited or line-oriented encoding in declaration order —
// declaration order is semantic (it fixes the BDD variable order), so it is
// hashed as-is; read/write sets are order-insensitive in the semantics and
// are sorted before hashing. Expressions are hashed via their String()
// rendering, which is deterministic and injective on distinct structures up
// to operator formatting.
func defKey(def *program.Def, alg string, opts repair.Options) string {
	h := sha256.New()
	wr := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
	}

	// Workers does not change the synthesized program (the engine is
	// deterministic across worker counts), but the report records the
	// effective count, so runs with different budgets must not alias in the
	// cache. The node budget can turn a success into a failure, so it is part
	// of the address too. The version prefix is bumped whenever the report
	// shape for the same inputs changes (v3: witnesses embedded in RunReport;
	// v4: node-lifetime counters in RunReport and node_budget in the spec;
	// v5: reorder in the spec and bdd_reorder_runs in RunReport; v6: the
	// verification backend in the spec and backend/sat counters in RunReport;
	// v7: the engine mode in the spec, hashed canonically, and engine_mode in
	// RunReport; v8: the cost model in the spec plus per-action cost
	// annotations and cost rules from the .ftr source, and the cost fields in
	// RunReport; v9: the shared engine was removed, and with it the engine
	// mode from the spec, from this hash and from RunReport's engine_mode;
	// v10: the SAT verification backend left every user surface, and with it
	// the backend from the spec, from this hash and from RunReport's backend
	// and sat fields).
	// Dropping the spec's flat aliases of the engine and cost objects needed
	// no bump: every spec that still parses resolves to the same options,
	// hashes the same inputs, and yields the same report, so spilled results
	// stay valid (TestSpecKeyGolden pins one such key).
	wr("v10\x00alg=%s\x00heur=%t\x00defercyc=%t\x00maxiter=%d\x00workers=%d\x00nodebudget=%d\x00reorder=%d\x00",
		alg, opts.ReachabilityHeuristic, opts.DeferCycleBreaking, opts.MaxOuterIterations, opts.Workers, opts.NodeBudget, opts.Reorder)
	if opts.Costs != nil {
		wr("cost:default=%d:minimize=%t\x00", opts.Costs.Default, opts.MinimizeCost)
		names := make([]string, 0, len(opts.Costs.Actions))
		for name := range opts.Costs.Actions {
			names = append(names, name)
		}
		sort.Strings(names)
		wr("costactions=%d\x00", len(names))
		for _, name := range names {
			wr("%s=%d\x00", name, opts.Costs.Actions[name])
		}
	} else {
		wr("cost=nil\x00")
	}

	wr("name=%s\x00", def.Name)
	wr("vars=%d\x00", len(def.Vars))
	for _, v := range def.Vars {
		wr("var:%s:%d\x00", v.Name, v.Domain)
	}

	wr("procs=%d\x00", len(def.Processes))
	for _, p := range def.Processes {
		wr("proc:%s\x00", p.Name)
		writeSorted(h, "read", p.Read)
		writeSorted(h, "write", p.Write)
		wr("actions=%d\x00", len(p.Actions))
		for _, a := range p.Actions {
			writeAction(h, a)
		}
	}

	wr("faults=%d\x00", len(def.Faults))
	for _, a := range def.Faults {
		writeAction(h, a)
	}

	wr("costrules=%d\x00", len(def.CostRules))
	for _, r := range def.CostRules {
		wr("costrule:%d\x00", r.Cost)
		writeExpr(h, "pred", r.Pred)
	}

	writeExpr(h, "invariant", def.Invariant)
	writeExpr(h, "badstates", def.BadStates)
	writeExpr(h, "badtrans", def.BadTrans)
	wr("liveness=%d\x00", len(def.Liveness))
	for _, lt := range def.Liveness {
		wr("leadsto:%s\x00", lt.Name)
		writeExpr(h, "from", lt.From)
		writeExpr(h, "to", lt.To)
	}

	return hex.EncodeToString(h.Sum(nil))
}

func writeSorted(w io.Writer, tag string, names []string) {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	fmt.Fprintf(w, "%s=%d\x00", tag, len(sorted))
	for _, n := range sorted {
		fmt.Fprintf(w, "%s\x00", n)
	}
}

func writeAction(w io.Writer, a program.Action) {
	fmt.Fprintf(w, "action:%s:cost=%d\x00", a.Name, a.Cost)
	writeExpr(w, "guard", a.Guard)
	fmt.Fprintf(w, "updates=%d\x00", len(a.Updates))
	for _, u := range a.Updates {
		fmt.Fprintf(w, "upd:%d:%s:%d:%s:%v\x00", u.Kind, u.Var, u.Val, u.From, u.Among)
	}
}

// writeExpr hashes an expression by its deterministic String rendering; nil
// (meaning the Def-level default) hashes distinctly from any real expression.
func writeExpr(w io.Writer, tag string, e interface{ String() string }) {
	if e == nil {
		fmt.Fprintf(w, "%s=nil\x00", tag)
		return
	}
	fmt.Fprintf(w, "%s=%s\x00", tag, e.String())
}
