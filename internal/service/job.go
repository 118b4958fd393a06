package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/parse"
	"repro/internal/program"
	"repro/internal/repair"
)

// State is a job's position in its lifecycle.
type State string

// Job lifecycle states. Queued and Running are transient; Done, Failed and
// Cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// MaxJobWorkers bounds EngineSpec.Workers: each engine worker costs a
// private BDD manager once a fan-out needs one, so an unbounded request
// would let one client exhaust the daemon's memory.
const MaxJobWorkers = 16

// MaxWitnesses bounds Spec.Witnesses: each demonstration costs a serial
// extraction pass and is embedded verbatim in the cached report, so an
// unbounded request would bloat both the worker and the cache.
const MaxWitnesses = 8

// Spec is a repair-job submission: either a built-in case study (Case, N) or
// an inline .ftr model source (Model), plus algorithm and option selectors.
// It is the JSON body of POST /v1/repair. Engine and cost options live only
// in the structured Engine and Cost objects; the HTTP decoder rejects any
// other field by name.
type Spec struct {
	// Case/N name a built-in case-study instance (ba, bafs, sc, ring, tmr).
	Case string `json:"case,omitempty"`
	N    int    `json:"n,omitempty"`
	// Model is inline .ftr source; mutually exclusive with Case.
	Model string `json:"model,omitempty"`

	// Algorithm is "lazy" (default) or "cautious".
	Algorithm string `json:"algorithm,omitempty"`
	// Pure disables the reachability heuristic (the paper's ablation).
	Pure bool `json:"pure,omitempty"`
	// DeferCycles moves cycle-breaking after Step 2 (the paper's ablation).
	DeferCycles bool `json:"defer_cycles,omitempty"`
	// NoVerify skips the independent verifier (it runs by default, so every
	// served result is a certified one unless the client opts out).
	NoVerify bool `json:"no_verify,omitempty"`
	// Witnesses asks for up to that many recovery demonstrations (certified
	// traces that leave the invariant via faults and converge back) embedded
	// in the result report, and attaches failure traces to failed verifier
	// checks. 0 (the default) extracts nothing; capped at MaxWitnesses. The
	// field is part of the content address: a report with witnesses and one
	// without never alias in the cache.
	Witnesses int `json:"witnesses,omitempty"`
	// TimeoutMS bounds the synthesis; 0 uses the service default. The clock
	// starts at submission, so time spent queued counts against the job.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Engine is the structured engine configuration, mirroring the library's
	// EngineConfig.
	Engine *EngineSpec `json:"engine,omitempty"`

	// Cost is the structured cost configuration — the service-side mirror of
	// the library's CostModel plus the minimize switch. Any active cost field
	// prices the job's transitions and adds achieved_cost/cost_removed to the
	// report; Minimize additionally turns on cost-aware synthesis. Part of
	// the content address: a costed report and an uncosted one never alias.
	Cost *CostSpec `json:"cost,omitempty"`
}

// CostSpec is a Spec's structured cost configuration.
type CostSpec struct {
	// Default is the weight of transitions no other source prices; 0 means 1.
	Default int64 `json:"default,omitempty"`
	// Actions overrides per-action weights by name ("proc.action" or bare
	// "action"); weights must lie in [1, 2^30].
	Actions map[string]int64 `json:"actions,omitempty"`
	// Minimize turns on cost-aware synthesis (cheapest-first cycle breaking
	// and convergence-time recovery thinning); the verdict is unchanged.
	Minimize bool `json:"minimize,omitempty"`
}

// EngineSpec is a Spec's structured engine configuration — the service-side
// mirror of the library's EngineConfig. Every field is part of the content
// address.
type EngineSpec struct {
	// Workers is the per-job parallel-engine width. 0 (the default) takes
	// the daemon's Config.JobWorkers, which is itself serial by default —
	// the daemon's own pool already parallelizes across jobs — while an
	// explicit 2..MaxJobWorkers lets one wide job use several cores. The
	// synthesized result is identical either way, but the report records
	// the width, so it is part of the content address.
	Workers int `json:"workers,omitempty"`
	// NodeBudget bounds the job's live BDD node count: a synthesis that
	// grows past it (and that garbage collection cannot shrink back under)
	// fails with a budget error instead of exhausting the daemon's memory.
	// 0 (the default) means unbounded. A budgeted run can fail where an
	// unbudgeted one succeeds, so the two never alias.
	NodeBudget int64 `json:"node_budget,omitempty"`
	// Reorder arms dynamic variable reordering on the job's BDD managers: a
	// sifting pass runs after that many node allocations. 0 (the default)
	// leaves reordering off. The synthesized program and its witnesses are
	// identical either way; only node counts and timing differ, which the
	// report records.
	Reorder int64 `json:"reorder,omitempty"`
}

// resolve parses/builds the program definition and the core job, and
// computes the spec's content address.
func (sp *Spec) resolve() (*program.Def, core.Job, string, error) {
	var def *program.Def
	var err error
	switch {
	case sp.Model != "" && sp.Case != "":
		return nil, core.Job{}, "", fmt.Errorf("service: spec has both model and case")
	case sp.Model != "":
		if def, err = parse.Program(sp.Model); err != nil {
			return nil, core.Job{}, "", fmt.Errorf("service: parsing model: %w", err)
		}
	case sp.Case != "":
		if def, err = core.CaseStudy(sp.Case, sp.N); err != nil {
			return nil, core.Job{}, "", err
		}
	default:
		return nil, core.Job{}, "", fmt.Errorf("service: spec needs either model or case")
	}

	alg := sp.Algorithm
	if alg == "" {
		alg = string(core.LazyRepair)
	}
	if alg != string(core.LazyRepair) && alg != string(core.CautiousRepair) {
		return nil, core.Job{}, "", fmt.Errorf("service: unknown algorithm %q (want %q or %q)",
			alg, core.LazyRepair, core.CautiousRepair)
	}
	if sp.TimeoutMS < 0 {
		return nil, core.Job{}, "", fmt.Errorf("service: timeout_ms %d must be non-negative", sp.TimeoutMS)
	}
	eng := EngineSpec{}
	if sp.Engine != nil {
		eng = *sp.Engine
	}
	if eng.Workers < 0 || eng.Workers > MaxJobWorkers {
		return nil, core.Job{}, "", fmt.Errorf("service: workers %d out of range [0,%d]", eng.Workers, MaxJobWorkers)
	}
	if sp.Witnesses < 0 || sp.Witnesses > MaxWitnesses {
		return nil, core.Job{}, "", fmt.Errorf("service: witnesses %d out of range [0,%d]", sp.Witnesses, MaxWitnesses)
	}
	if eng.NodeBudget < 0 {
		return nil, core.Job{}, "", fmt.Errorf("service: node_budget %d must be non-negative", eng.NodeBudget)
	}
	if eng.Reorder < 0 {
		return nil, core.Job{}, "", fmt.Errorf("service: reorder %d must be non-negative", eng.Reorder)
	}

	cost := CostSpec{}
	if sp.Cost != nil {
		cost = *sp.Cost
	}
	if cost.Default < 0 {
		return nil, core.Job{}, "", fmt.Errorf("service: cost default %d must be non-negative", cost.Default)
	}
	const maxCostWeight = 1 << 30
	for name, w := range cost.Actions {
		if w < 1 || w > maxCostWeight {
			return nil, core.Job{}, "", fmt.Errorf("service: cost for action %q is %d, want [1,%d]", name, w, int64(maxCostWeight))
		}
	}
	costed := cost.Default != 0 || len(cost.Actions) > 0 || cost.Minimize

	opts := repair.DefaultOptions()
	opts.ReachabilityHeuristic = !sp.Pure
	opts.DeferCycleBreaking = sp.DeferCycles
	// Unlike the library default (0 → GOMAXPROCS), a daemon job defaults to
	// a serial engine: the service's worker pool already runs jobs in
	// parallel, so intra-job width is opt-in per job.
	opts.Workers = eng.Workers
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	opts.NodeBudget = eng.NodeBudget
	opts.Reorder = eng.Reorder
	if costed {
		opts.Costs = &repair.CostModel{Default: cost.Default, Actions: cost.Actions}
		opts.MinimizeCost = cost.Minimize
	}

	job := core.Job{
		Def:       def,
		Algorithm: core.Algorithm(alg),
		Options:   opts,
		Verify:    !sp.NoVerify,
		Witnesses: sp.Witnesses,
	}
	// Verification and witness extraction are independent post-passes over
	// the same result, so they are part of the content address only through
	// the report shape; include them so runs with different report shapes
	// never alias in the cache.
	key := defKey(def, alg+fmt.Sprintf("/verify=%t/witnesses=%d", job.Verify, job.Witnesses), opts)
	return def, job, key, nil
}

// job is the service's internal record of one submission.
type job struct {
	id  string
	key string

	spec    Spec
	coreJob core.Job

	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{} // closed exactly once on reaching a terminal state
	logger *jobLogger
	events *eventLog

	mu       sync.Mutex
	state    State
	err      string
	report   *core.RunReport
	cacheHit bool

	submitted time.Time
	started   time.Time
	finished  time.Time
}

// JobView is the externally visible snapshot of a job — the JSON shape of
// GET /v1/jobs/{id} and of submission responses.
type JobView struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// CacheHit marks results served from the content-addressed cache or
	// coalesced onto an identical in-flight synthesis.
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	Result *core.RunReport `json:"result,omitempty"`
	Log    []string        `json:"log,omitempty"`
}

// view snapshots the job under its lock.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Key:         j.key,
		State:       j.state,
		CacheHit:    j.cacheHit,
		Error:       j.err,
		SubmittedAt: j.submitted,
		Result:      j.report,
		Log:         j.logger.snapshot(),
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// jobLogger adapts repair.Options.Logf to the worker pool: it retains the
// last max lines under a mutex, making the per-job log safe to snapshot from
// the HTTP handlers while a worker is writing it. (A single repair call logs
// sequentially — see the Options.Logf contract — but the reader is always a
// different goroutine, so the lock is load-bearing.)
type jobLogger struct {
	mu    sync.Mutex
	max   int
	start int // ring start
	lines []string
}

func newJobLogger(max int) *jobLogger {
	if max < 1 {
		max = 1
	}
	return &jobLogger{max: max}
}

func (l *jobLogger) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lines) < l.max {
		l.lines = append(l.lines, line)
		return
	}
	l.lines[l.start] = line
	l.start = (l.start + 1) % l.max
}

func (l *jobLogger) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lines) == 0 {
		return nil
	}
	out := make([]string, 0, len(l.lines))
	for i := 0; i < len(l.lines); i++ {
		out = append(out, l.lines[(l.start+i)%len(l.lines)])
	}
	return out
}
