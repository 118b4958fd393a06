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
	"repro/internal/sat"
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
	Options   repair.Options
	// Verify runs the independent checker on the result.
	Verify bool
	// Backend selects the verification backend: verify.BackendBDD (the
	// default, also selected by the empty string) or verify.BackendSAT, which
	// routes the reachability checks and the safety/deadlock witness search
	// through bounded model checking over the CDCL solver. The repair
	// algorithms themselves always run on the BDD engine.
	Backend verify.Backend
	// Witnesses, when positive, asks for up to that many recovery
	// demonstrations on success (one per fault action) in
	// Result.Witnesses, and attaches failure traces to failed verifier
	// checks (when Verify is also set). Extraction is deterministic, so the
	// traces are byte-identical across worker counts.
	Witnesses int
	// Progress, when non-nil, receives phase-start notifications as the run
	// advances: PhaseCompile, then PhaseStep1/PhaseStep2 per outer repair
	// iteration (relayed through Options.Phasef unless the caller set that
	// hook itself), then PhaseWitness and PhaseVerify when requested. The
	// daemon streams these to clients; the outcome never depends on them.
	// Called sequentially from the goroutine running the job.
	Progress func(phase string)
}

// The phase names reported through Job.Progress, matching the per-phase
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
	// SATStats is the solver work summed over the verifier's bounded
	// model-checking queries; nil unless Job.Verify ran under BackendSAT.
	SATStats *sat.Stats

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

	// Fixpoint is the unified reachability scheduler's cumulative work
	// counters (rounds, frontier images, frontier sizes), captured after the
	// job finishes.
	Fixpoint program.FixpointStats
}

// Run executes a repair job. The context bounds the synthesis: a deadline or
// cancellation aborts the repair algorithms at their next fixpoint-iteration
// boundary with an error wrapping ctx.Err().
//
// One parallel engine (sized by Job.Options.Workers; 0 selects GOMAXPROCS)
// is built per run and shared between the synthesis and the verifier, so the
// worker clones, if a fan-out needs them, are compiled once.
func Run(ctx context.Context, job Job) (out *Outcome, err error) {
	progress := func(phase string) {
		if job.Progress != nil {
			job.Progress(phase)
		}
	}
	if job.Options.Phasef == nil {
		job.Options.Phasef = job.Progress
	}
	progress(PhaseCompile)
	t0 := time.Now()
	compiled, err := job.Def.Compile()
	if err != nil {
		return nil, err
	}
	eng, err := program.NewEngineMode(compiled, program.Mode(job.Options.Mode), job.Options.Workers)
	if err != nil {
		return nil, err
	}
	job.Options.ApplyEngine(eng)
	// A blown budget surfaces as a *bdd.BudgetError panic at a collection
	// safe point (or pre-converted to an error by the worker pool); convert
	// it to a clean failure here, the run boundary. The recovery is
	// unconditional: budgets can be armed below this frame (a manager
	// carried over from an earlier bounded run), so gating it on this job's
	// own NodeBudget would let those panics escape.
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(*bdd.BudgetError)
			if !ok {
				panic(r)
			}
			out, err = nil, fmt.Errorf("core: %w", be)
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
		progress(PhaseWitness)
		t1 := time.Now()
		demos, err := witness.RecoveryDemos(ctx, compiled, res.Trans, res.Invariant, res.FaultSpan, job.Witnesses)
		if err != nil {
			return nil, err
		}
		res.Witnesses = demos
		out.WitnessTime = time.Since(t1)
	}

	if job.Verify {
		progress(PhaseVerify)
		t1 := time.Now()
		backend, err := verify.ParseBackend(string(job.Backend))
		if err != nil {
			return nil, err
		}
		rep, err := verify.ResultBackendEngine(ctx, eng, res, backend, job.Witnesses > 0)
		if err != nil {
			return nil, err
		}
		out.Report = rep
		out.SATStats = rep.SAT
		out.VerifyTime = time.Since(t1)
	}
	return out, nil
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
