// Package core orchestrates repair jobs: it compiles a distributed-program
// definition, runs the selected repair algorithm (lazy or cautious),
// optionally verifies the output against the paper's definitions, and
// gathers timing statistics in the shape of the paper's tables.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bdd"
	"repro/internal/casestudies"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/verify"
	"repro/internal/witness"
)

// Algorithm selects a repair algorithm.
type Algorithm string

// The implemented repair algorithms.
const (
	// LazyRepair is the paper's two-step Algorithm 1.
	LazyRepair Algorithm = "lazy"
	// CautiousRepair is the baseline that maintains realizability at every
	// intermediate step (Section IV).
	CautiousRepair Algorithm = "cautious"
)

// Job describes one repair run.
type Job struct {
	Def       *program.Def
	Algorithm Algorithm
	// Options configure the synthesis and its engine. Options.Phasef, when
	// non-nil, receives phase-start notifications as the run advances:
	// PhaseCompile, then the repair algorithm's own ("step1", "step2" per
	// outer iteration, "thin" when a costed run thins its recovery), then
	// PhaseWitness and PhaseVerify when requested. The daemon streams these
	// to clients; the outcome never depends on them.
	Options repair.Options
	// Verify runs the independent checker on the result.
	Verify bool
	// Backend must be "" or "bdd" (verify.ParseBackend): BDDs are the only
	// verifier. It remains only because bench/trace.go, which mirrors Run's
	// verify call, names it.
	Backend verify.Backend
	// Witnesses, when positive, asks for up to that many recovery
	// demonstrations on success (one per fault action) in
	// Result.Witnesses, and attaches failure traces to failed verifier
	// checks (when Verify is also set). Extraction is deterministic, so the
	// traces are byte-identical across worker counts.
	Witnesses int
}

// The phase names Run reports through Options.Phasef. PhaseStep1 and
// PhaseStep2 come from the repair algorithms; they match the per-phase
// counters of RunReport (compile_ns, step1_ns, step2_ns, witness_ns,
// verify_ns).
const (
	PhaseCompile = "compile"
	PhaseStep1   = "step1"
	PhaseStep2   = "step2"
	PhaseWitness = "witness"
	PhaseVerify  = "verify"
)

// Outcome is the result of a Job.
type Outcome struct {
	Compiled *program.Compiled
	Result   *repair.Result
	Report   *verify.Report // nil unless Job.Verify
	// SATStats is always nil. It remains only because bench/trace.go, which
	// mirrors Run's verify call, sets it from verify.Report.SAT.
	SATStats *struct{}

	CompileTime time.Duration
	VerifyTime  time.Duration // zero unless Job.Verify
	WitnessTime time.Duration // zero unless Job.Witnesses > 0
	Workers     int           // effective engine worker count
	// Mode is unset by Run; it remains for bench/trace.go.
	Mode string

	// Node-lifetime counters of the run's owning manager (plus the peak
	// across worker managers), captured after the job finishes.
	NodesLive   int64 // live BDD nodes when the job completed
	PeakNodes   int64 // high-water mark of live nodes across all managers
	GCRuns      int64 // collections performed by the owning manager
	NodesFreed  int64 // nodes reclaimed by the owning manager
	ReorderRuns int64 // sifting passes run by the owning manager

	// Fixpoint is the reachability fixpoints' cumulative work counters
	// (rounds and frontier images), captured after the job finishes.
	Fixpoint program.FixpointStats
}

// Run executes a repair job. The context bounds the synthesis: a deadline or
// cancellation aborts the repair algorithms at their next fixpoint-iteration
// boundary with an error wrapping ctx.Err().
//
// Run is the one driver of the pipeline: the CLI, the daemon, the repro
// library and cmd/tables all call it. One parallel engine (sized by
// Job.Options.Workers; 0 selects GOMAXPROCS) is built per run and shared
// between the synthesis and the verifier, so the worker clones, if a fan-out
// needs them, are compiled once.
func Run(ctx context.Context, job Job) (out *Outcome, err error) {
	phase(job.Options.Phasef, PhaseCompile)
	t0 := time.Now()
	compiled, err := job.Def.Compile()
	if err != nil {
		return nil, err
	}
	eng, err := engine(compiled, job.Options)
	if err != nil {
		return nil, err
	}
	if job.Options.NodeBudget > 0 {
		defer eng.SetNodeBudget(0)
	}
	defer func() {
		if e := budgetError(recover()); e != nil {
			out, err = nil, e
		}
	}()
	out = &Outcome{Compiled: compiled, CompileTime: time.Since(t0), Workers: eng.Workers()}
	defer func() {
		if out != nil {
			st := compiled.Space.M.Stats()
			out.NodesLive = st.NodesLive
			out.PeakNodes = eng.PeakLive()
			out.GCRuns = st.GCRuns
			out.NodesFreed = st.NodesFreed
			out.ReorderRuns = st.ReorderRuns
			out.Fixpoint = eng.FixpointStats()
		}
	}()

	var res *repair.Result
	switch job.Algorithm {
	case LazyRepair, "":
		res, err = repair.LazyEngine(ctx, eng, job.Options)
	case CautiousRepair:
		res, err = repair.CautiousEngine(ctx, eng, job.Options)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", job.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	out.Result = res

	if job.Witnesses > 0 {
		phase(job.Options.Phasef, PhaseWitness)
		t1 := time.Now()
		demos, err := witness.RecoveryDemos(ctx, compiled, res.Trans, res.Invariant, res.FaultSpan, job.Witnesses)
		if err != nil {
			return nil, err
		}
		res.Witnesses = demos
		out.WitnessTime = time.Since(t1)
	}

	if job.Verify {
		phase(job.Options.Phasef, PhaseVerify)
		t1 := time.Now()
		if _, err := verify.ParseBackend(string(job.Backend)); err != nil {
			return nil, err
		}
		rep, err := verify.Result(ctx, eng, res, job.Witnesses > 0)
		if err != nil {
			return nil, err
		}
		out.Report = rep
		out.VerifyTime = time.Since(t1)
	}
	return out, nil
}

// Verify checks res against the compiled program it was synthesized from,
// on an engine built and tuned from opts as Run builds its own: opts.Workers
// sizes it, and opts.NodeBudget and opts.Reorder tune c's managers. The
// options that steer synthesis are ignored. A blown budget comes back as an
// error wrapping *bdd.BudgetError, and a budget this call armed is lifted on
// return, so it bounds this check only.
func Verify(ctx context.Context, c *program.Compiled, res *repair.Result, opts repair.Options) (rep *verify.Report, err error) {
	eng, err := engine(c, opts)
	if err != nil {
		return nil, err
	}
	if opts.NodeBudget > 0 {
		defer eng.SetNodeBudget(0)
	}
	defer func() {
		if e := budgetError(recover()); e != nil {
			rep, err = nil, e
		}
	}()
	return verify.Result(ctx, eng, res, false)
}

// engine builds c's parallel engine and applies opts' manager tuning (node
// budget, reordering cadence) to it. It is the only place that builds an
// engine for a run: Run and Verify are the run boundaries.
func engine(c *program.Compiled, opts repair.Options) (*program.Engine, error) {
	eng, err := program.NewEngineMode(c, program.Mode(opts.Mode), opts.Workers)
	if err != nil {
		return nil, err
	}
	opts.ApplyEngine(eng)
	return eng, nil
}

// budgetError turns the value of a recover() at a run boundary into an
// error. A blown budget surfaces as a *bdd.BudgetError panic at a
// collection safe point (or pre-converted to an error by the worker pool);
// it becomes an ordinary error, and any other panic propagates. The
// boundaries recover unconditionally: a budget can be armed below them (a
// manager whose budget the caller set directly), so gating the recovery on
// the call's own NodeBudget would let those panics escape.
func budgetError(r any) error {
	if r == nil {
		return nil
	}
	be, ok := r.(*bdd.BudgetError)
	if !ok {
		panic(r)
	}
	return fmt.Errorf("core: %w", be)
}

// phase reports the start of one of Run's own phases through the
// Options.Phasef hook f, if set.
func phase(f func(string), name string) {
	if f != nil {
		f(name)
	}
}

// CaseStudy builds one of the paper's case studies by name:
// "ba" (Byzantine agreement, n non-generals), "bafs" (Byzantine agreement
// with fail-stop faults), "sc" (stabilizing chain, n cells), or "ring"
// (Dijkstra's K-state token ring, n processes with counter domain n+1 — the
// extension benchmark).
func CaseStudy(name string, n int) (*program.Def, error) {
	switch name {
	case "ba":
		if n < 1 {
			return nil, fmt.Errorf("core: ba requires n ≥ 1")
		}
		return casestudies.BA(n), nil
	case "bafs":
		if n < 1 {
			return nil, fmt.Errorf("core: bafs requires n ≥ 1")
		}
		return casestudies.BAFS(n), nil
	case "sc":
		if n < 2 {
			return nil, fmt.Errorf("core: sc requires n ≥ 2")
		}
		return casestudies.SC(n), nil
	case "ring":
		if n < 2 {
			return nil, fmt.Errorf("core: ring requires n ≥ 2")
		}
		return casestudies.TokenRing(n, n+1), nil
	case "tmr":
		return casestudies.TMR(), nil
	default:
		return nil, fmt.Errorf("core: unknown case study %q (want ba, bafs, sc, ring, or tmr)", name)
	}
}

// CaseStudyNames lists the available case-study names.
func CaseStudyNames() []string { return []string{"ba", "bafs", "sc", "ring", "tmr"} }
