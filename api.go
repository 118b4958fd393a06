package repro

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/repair"
)

// Algorithm selects the repair algorithm used by Repair. Its zero value
// selects LazyAlg.
type Algorithm = core.Algorithm

// The implemented repair algorithms.
const (
	// LazyAlg is the paper's two-step Algorithm 1: Add-Masking without
	// realizability constraints, then realizability enforcement by removal,
	// iterated until no deadlocks remain. The default.
	LazyAlg = core.LazyRepair
	// CautiousAlg is the baseline that keeps the model realizable at every
	// intermediate step (Section IV of the paper).
	CautiousAlg = core.CautiousRepair
)

// repairConfig is the resolved configuration of one Repair or Verify call:
// the core job it runs, and the timeout that bounds it.
type repairConfig struct {
	job     core.Job
	timeout time.Duration
}

// Option configures a Repair call.
type Option func(*repairConfig)

// WithAlgorithm selects the repair algorithm (default LazyAlg).
func WithAlgorithm(a Algorithm) Option {
	return func(c *repairConfig) { c.job.Algorithm = a }
}

// EngineConfig consolidates every engine-tuning knob behind one struct: the
// worker count, the node budget and the reordering cadence. The zero value
// of every field selects its default (GOMAXPROCS workers, unbounded nodes,
// no reordering), so callers set only what they mean.
type EngineConfig struct {
	// Workers is the worker count; below 1 selects GOMAXPROCS, 1 is serial.
	// Each worker is a private BDD manager, compiled only when a
	// per-process fan-out is large enough to use it; fixpoints run on the
	// owner. Results are identical for any count.
	Workers int
	// NodeBudget, when positive, bounds the live BDD node count; a blown
	// budget fails the run with *BudgetError instead of exhausting memory.
	NodeBudget int64
	// Reorder arms dynamic variable reordering with the given allocation
	// cadence; negative disables it, 0 keeps the default.
	Reorder int64
}

// WithEngine applies a full engine configuration. It is the single
// engine-tuning entry point and it assigns all three engine fields of
// Options. Options apply in their given order, and WithOptions replaces
// every field, so place WithOptions first and WithEngine after it. The
// former per-knob wrappers (WithWorkers, WithNodeBudget, WithReorder) were
// removed; each one maps to the EngineConfig field of the same name.
func WithEngine(ec EngineConfig) Option {
	return func(c *repairConfig) {
		c.job.Options.Workers = ec.Workers
		c.job.Options.NodeBudget = ec.NodeBudget
		c.job.Options.Reorder = ec.Reorder
	}
}

// WithTimeout bounds the synthesis: when the deadline passes, the repair
// aborts at its next fixpoint-iteration boundary with an error wrapping
// context.DeadlineExceeded. Zero or negative means no timeout beyond the
// caller's context.
func WithTimeout(d time.Duration) Option {
	return func(c *repairConfig) { c.timeout = d }
}

// WithLogf directs the synthesis's progress lines to f (see
// Options.Logf for the concurrency contract).
func WithLogf(f func(format string, args ...any)) Option {
	return func(c *repairConfig) { c.job.Options.Logf = f }
}

// CostModel prices transitions for cost-aware repair; see WithCostModel.
// Default is the weight of transitions no other source prices (values below
// 1 mean 1), and Actions overrides per-action weights by name: a
// "proc.action" key binds one process's action, a bare "action" key binds
// every action with that name. Qualified keys win over bare ones, and both
// win over the .ftr `cost` annotation.
type CostModel = repair.CostModel

// WithCostModel prices the model's transitions and turns on cost-aware
// repair: the synthesis still produces the same verdict (and a program
// passing the same Verify checks), but prefers removing cheap transitions
// when breaking livelocks and thins the synthesized recovery of expensive
// read-restriction groups once converged. The result carries the exact
// weighted counts in Result.AchievedCost (kept recovery transitions) and
// Result.CostRemoved (original transitions deleted); both are identical
// across worker counts. Weights come from the model's .ftr
// `cost` annotations, overridden by cm (see CostModel).
func WithCostModel(cm CostModel) Option {
	return func(c *repairConfig) {
		c.job.Options.Costs = &cm
		c.job.Options.MinimizeCost = true
	}
}

// WithWitnesses asks for up to n recovery demonstrations in
// Result.Witnesses: certified traces, one per fault action, that leave the
// synthesized invariant via faults and converge back to it via program
// steps. Extraction is deterministic — the same model yields byte-identical
// witness JSON regardless of the worker count. n ≤ 0 (the default) extracts
// nothing.
func WithWitnesses(n int) Option {
	return func(c *repairConfig) { c.job.Witnesses = n }
}

// WithOptions replaces the full low-level Options struct (ablations such as
// disabling the reachability heuristic or deferring cycle-breaking). Options
// set by other With* calls apply on top in their given order, so place
// WithOptions first.
func WithOptions(o Options) Option {
	return func(c *repairConfig) { c.job.Options = o }
}

// Repair compiles the definition and synthesizes a masking fault-tolerant
// program from it. It is the single entry point of the library: the
// algorithm, worker budget, timeout, and logging are all functional options,
// and the context carries cancellation. With no options it runs the paper's
// headline configuration (lazy repair, reachability heuristic on, GOMAXPROCS
// workers). A node budget set with WithEngine bounds this call only: a blown
// one fails it with an error wrapping *BudgetError, and it is lifted on
// return.
func Repair(ctx context.Context, def *Def, opts ...Option) (*Compiled, *Result, error) {
	cfg := configure(opts)
	ctx, cancel := cfg.bound(ctx)
	defer cancel()
	cfg.job.Def = def
	out, err := core.Run(ctx, cfg.job)
	if err != nil {
		return nil, nil, err
	}
	return out.Compiled, out.Result, nil
}

// NodeStats reports the node-lifetime counters of a compiled model's BDD
// manager: live and peak-live node counts, collections performed, and nodes
// reclaimed. Useful after Repair to see what the synthesis cost in memory.
func NodeStats(c *Compiled) (live, peak, gcRuns, freed int64) {
	st := c.Space.M.Stats()
	return st.NodesLive, st.PeakLive, st.GCRuns, st.NodesFreed
}

// Verify independently checks a repair result against the paper's
// definitions: the problem-statement conditions of Section II, masking
// fault-tolerance (Definition 15), and realizability (Definitions 19–20).
// It accepts the same functional options as Repair — WithEngine selects the
// worker count and node-lifetime knobs of the checking managers, and
// WithTimeout bounds the checking. Options that only steer synthesis
// (WithAlgorithm, WithWitnesses, WithCostModel) are accepted and ignored. A
// node budget set here bounds this check only, like Repair's.
func Verify(ctx context.Context, c *Compiled, res *Result, opts ...Option) (*Report, error) {
	cfg := configure(opts)
	ctx, cancel := cfg.bound(ctx)
	defer cancel()
	return core.Verify(ctx, c, res, cfg.job.Options)
}

// configure resolves a call's options over the paper's defaults.
func configure(opts []Option) repairConfig {
	cfg := repairConfig{job: core.Job{Options: repair.DefaultOptions()}}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// bound bounds ctx by the configured timeout, if there is one.
func (c *repairConfig) bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return ctx, func() {}
}
