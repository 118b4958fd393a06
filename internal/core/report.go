package core

import (
	"repro/internal/sat"
	"repro/internal/verify"
	"repro/internal/witness"
)

// RunReport is the machine-readable summary of one repair run: the paper's
// table columns (reachable states, Step 1 / Step 2 / total times, BDD nodes)
// plus the verification verdict. It is the single JSON encoding shared by
// `ftrepair -json` and the ftrepaird daemon's job results, so downstream
// tooling parses one shape everywhere.
type RunReport struct {
	// Model is the program's declared name; Case/N identify a built-in
	// case-study instance when the run came from one.
	Model string `json:"model"`
	Case  string `json:"case,omitempty"`
	N     int    `json:"n,omitempty"`

	Algorithm   string `json:"algorithm"`
	Pure        bool   `json:"pure,omitempty"`         // reachability heuristic disabled
	DeferCycles bool   `json:"defer_cycles,omitempty"` // cycle-breaking after Step 2
	Workers     int    `json:"workers,omitempty"`      // effective engine worker count
	// Backend is the verification backend ("bdd" or "sat"); empty when
	// verification was not requested. Kept by Normalized: the verdict is
	// backend-independent, but which engine produced it is part of the
	// report's identity.
	Backend string `json:"backend,omitempty"`

	StateBits       int     `json:"state_bits"`
	States          float64 `json:"states"`
	ReachableStates float64 `json:"reachable_states"`
	InvariantStates float64 `json:"invariant_states"`
	FaultSpanStates float64 `json:"fault_span_states"`
	OuterIterations int     `json:"outer_iterations"`
	BDDNodes        int     `json:"bdd_nodes"`

	// Node-lifetime counters (see internal/bdd's collector): live nodes at
	// job completion, the high-water mark across the run's managers, and the
	// owning manager's collection activity.
	BDDNodesLive   int64 `json:"bdd_nodes_live,omitempty"`
	BDDPeakNodes   int64 `json:"bdd_peak_nodes,omitempty"`
	BDDGCRuns      int64 `json:"bdd_gc_runs,omitempty"`
	BDDNodesFreed  int64 `json:"bdd_nodes_freed,omitempty"`
	BDDReorderRuns int64 `json:"bdd_reorder_runs,omitempty"`

	// Fixpoint work counters (internal/program's frontier-chained
	// fixpoint): the reachability fixpoints run (one round each) and their
	// frontier images, and the peak and final frontier sizes in BDD nodes.
	FixRounds        int64 `json:"fix_rounds,omitempty"`
	FixImages        int64 `json:"fix_images,omitempty"`
	FixFrontierPeak  int64 `json:"fix_frontier_peak,omitempty"`
	FixFrontierFinal int64 `json:"fix_frontier_final,omitempty"`

	CompileNS int64 `json:"compile_ns"`
	Step1NS   int64 `json:"step1_ns"`
	Step2NS   int64 `json:"step2_ns"`
	TotalNS   int64 `json:"total_ns"`
	VerifyNS  int64 `json:"verify_ns,omitempty"`
	WitnessNS int64 `json:"witness_ns,omitempty"`

	// SAT holds the CDCL solver's work counters (conflicts, decisions,
	// propagations, learned clauses, restarts, max decision level) summed
	// over the verifier's bounded model-checking queries. Nil unless the run
	// verified under the SAT backend. Zeroed by Normalized: solver effort is
	// performance telemetry, not part of the verdict.
	SAT *sat.Stats `json:"sat,omitempty"`

	// Verified is nil when verification was not requested; otherwise the
	// verifier's verdict, with the individual checks in Checks.
	Verified *bool          `json:"verified,omitempty"`
	Checks   []verify.Check `json:"checks,omitempty"`

	// Witnesses holds the recovery demonstrations extracted when the job
	// asked for them (Job.Witnesses > 0). Deterministic: a function of the
	// synthesized program alone, so Normalized keeps them.
	Witnesses []*witness.Trace `json:"witnesses,omitempty"`

	// Cost-aware repair outputs (see internal/repair's cost.go). Costed is
	// true when the job carried a cost model; MinCost is true when the
	// synthesis additionally minimized. AchievedCost is the exact weighted
	// count of the kept transitions leaving the repaired invariant,
	// CostRemoved the weighted count of original transitions the repair
	// deleted. Kept by Normalized: both are functions of the synthesized
	// program and the weight layer, identical across worker counts.
	Costed       bool    `json:"costed,omitempty"`
	MinCost      bool    `json:"min_cost,omitempty"`
	AchievedCost float64 `json:"achieved_cost,omitempty"`
	CostRemoved  float64 `json:"cost_removed,omitempty"`
}

// NewRunReport summarizes a finished job. caseName and n may be zero values
// for models that did not come from a built-in case study.
func NewRunReport(job Job, out *Outcome, caseName string, n int) RunReport {
	s := out.Compiled.Space
	res := out.Result
	alg := job.Algorithm
	if alg == "" {
		alg = LazyRepair
	}
	r := RunReport{
		Model:       job.Def.Name,
		Case:        caseName,
		N:           n,
		Algorithm:   string(alg),
		Pure:        !job.Options.ReachabilityHeuristic,
		DeferCycles: job.Options.DeferCycleBreaking,
		Workers:     out.Workers,

		StateBits:       s.TotalBits(),
		States:          s.CountStates(s.ValidCur()),
		ReachableStates: res.Stats.ReachableStates,
		InvariantStates: s.CountStates(res.Invariant),
		FaultSpanStates: s.CountStates(res.FaultSpan),
		OuterIterations: res.Stats.OuterIterations,
		BDDNodes:        res.Stats.BDDNodes,

		BDDNodesLive:   out.NodesLive,
		BDDPeakNodes:   out.PeakNodes,
		BDDGCRuns:      out.GCRuns,
		BDDNodesFreed:  out.NodesFreed,
		BDDReorderRuns: out.ReorderRuns,

		FixRounds:        out.Fixpoint.Rounds,
		FixImages:        out.Fixpoint.Images,
		FixFrontierPeak:  out.Fixpoint.PeakFrontier,
		FixFrontierFinal: out.Fixpoint.FinalFrontier,

		CompileNS: out.CompileTime.Nanoseconds(),
		Step1NS:   res.Stats.Step1.Nanoseconds(),
		Step2NS:   res.Stats.Step2.Nanoseconds(),
		TotalNS:   res.Stats.Total.Nanoseconds(),
		VerifyNS:  out.VerifyTime.Nanoseconds(),
		WitnessNS: out.WitnessTime.Nanoseconds(),

		Witnesses: res.Witnesses,

		Costed:       res.Costed,
		MinCost:      res.Costed && job.Options.MinimizeCost,
		AchievedCost: res.AchievedCost,
		CostRemoved:  res.CostRemoved,
	}
	if out.Report != nil {
		ok := out.Report.OK()
		r.Verified = &ok
		r.Checks = out.Report.Checks
		backend, err := verify.ParseBackend(string(job.Backend))
		if err != nil {
			backend = job.Backend // unvalidated jobs render verbatim
		}
		r.Backend = string(backend)
		r.SAT = out.SATStats
	}
	return r
}

// Normalized strips the fields that legitimately vary between runs of the
// same synthesis problem — wall-clock times, the worker count, and the BDD
// node count (the owning manager's node table evolves differently when
// results arrive as imported buffers instead of locally computed
// intermediates). Everything left is a function of the synthesized program
// alone, so two reports from the same problem must be identical after
// normalization regardless of Workers — the determinism contract the
// parallel engine is tested against.
func (r RunReport) Normalized() RunReport {
	r.Workers = 0
	r.BDDNodes = 0
	// Node-lifetime counters vary with worker count, GC cadence, and
	// reordering cadence exactly like BDDNodes does.
	r.BDDNodesLive, r.BDDPeakNodes, r.BDDGCRuns, r.BDDNodesFreed = 0, 0, 0, 0
	r.BDDReorderRuns = 0
	// Fixpoint work counters: rounds, images, and frontier sizes say how
	// the fixpoints were computed, not what they are.
	r.FixRounds, r.FixImages, r.FixFrontierPeak, r.FixFrontierFinal = 0, 0, 0, 0
	r.CompileNS, r.Step1NS, r.Step2NS, r.TotalNS, r.VerifyNS = 0, 0, 0, 0, 0
	r.WitnessNS = 0
	// Solver work counters are performance telemetry, like the BDD node
	// counters above; the verdict they accompany is what must be identical.
	r.SAT = nil
	// Witnesses stay: extraction is deterministic, so they are part of the
	// cross-worker-count identity the determinism tests assert. The cost
	// fields stay for the same reason: exact weighted counts over the
	// synthesized relation, not telemetry.
	return r
}
