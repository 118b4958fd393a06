package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/verify"
	"repro/internal/witness"
)

// Algorithm selects the repair algorithm used by Repair.
type Algorithm int

// The implemented repair algorithms.
const (
	// LazyAlg is the paper's two-step Algorithm 1: Add-Masking without
	// realizability constraints, then realizability enforcement by removal,
	// iterated until no deadlocks remain. The default.
	LazyAlg Algorithm = iota
	// CautiousAlg is the baseline that keeps the model realizable at every
	// intermediate step (Section IV of the paper).
	CautiousAlg
)

// String returns the algorithm's canonical name ("lazy", "cautious").
func (a Algorithm) String() string {
	switch a {
	case LazyAlg:
		return "lazy"
	case CautiousAlg:
		return "cautious"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// repairConfig is the resolved configuration of one Repair call.
type repairConfig struct {
	alg       Algorithm
	timeout   time.Duration
	witnesses int
	opts      repair.Options
}

// Option configures a Repair call.
type Option func(*repairConfig)

// WithAlgorithm selects the repair algorithm (default LazyAlg).
func WithAlgorithm(a Algorithm) Option {
	return func(c *repairConfig) { c.alg = a }
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
// engine-tuning entry point and it assigns every field, so combine it with
// other options by placing WithEngine first (like WithOptions). The former
// per-knob wrappers (WithWorkers, WithNodeBudget, WithReorder) were removed;
// each one maps to the EngineConfig field of the same name.
func WithEngine(ec EngineConfig) Option {
	return func(c *repairConfig) {
		c.opts.Workers = ec.Workers
		c.opts.NodeBudget = ec.NodeBudget
		c.opts.Reorder = ec.Reorder
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
	return func(c *repairConfig) { c.opts.Logf = f }
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
		c.opts.Costs = &cm
		c.opts.MinimizeCost = true
	}
}

// WithWitnesses asks for up to n recovery demonstrations in
// Result.Witnesses: certified traces, one per fault action, that leave the
// synthesized invariant via faults and converge back to it via program
// steps. Extraction is deterministic — the same model yields byte-identical
// witness JSON regardless of the worker count. n ≤ 0 (the default) extracts
// nothing.
func WithWitnesses(n int) Option {
	return func(c *repairConfig) { c.witnesses = n }
}

// WithOptions replaces the full low-level Options struct (ablations such as
// disabling the reachability heuristic or deferring cycle-breaking). Options
// set by other With* calls apply on top in their given order, so place
// WithOptions first.
func WithOptions(o Options) Option {
	return func(c *repairConfig) { c.opts = o }
}

// Repair compiles the definition and synthesizes a masking fault-tolerant
// program from it. It is the single entry point of the library: the
// algorithm, worker budget, timeout, and logging are all functional options,
// and the context carries cancellation. With no options it runs the paper's
// headline configuration (lazy repair, reachability heuristic on, GOMAXPROCS
// workers).
func Repair(ctx context.Context, def *Def, opts ...Option) (compiled *Compiled, result *Result, err error) {
	cfg := repairConfig{opts: repair.DefaultOptions()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	c, err := def.Compile()
	if err != nil {
		return nil, nil, err
	}
	eng, err := program.NewEngineMode(c, program.Mode(cfg.opts.Mode), cfg.opts.Workers)
	if err != nil {
		return nil, nil, err
	}
	cfg.opts.ApplyEngine(eng)
	// A blown budget surfaces as a *bdd.BudgetError panic at a collection
	// safe point; Repair is a run boundary, so it converts the panic back
	// into an ordinary error unconditionally — a budget can be armed even
	// when this call didn't set one (WithOptions carrying a budget-bearing
	// Options value, a stressed manager default).
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(*BudgetError)
			if !ok {
				panic(r)
			}
			compiled, result, err = nil, nil, fmt.Errorf("repro: %w", be)
		}
	}()

	var res *Result
	switch cfg.alg {
	case LazyAlg:
		res, err = repair.LazyEngine(ctx, eng, cfg.opts)
	case CautiousAlg:
		res, err = repair.CautiousEngine(ctx, eng, cfg.opts)
	default:
		return nil, nil, fmt.Errorf("repro: unknown algorithm %v", cfg.alg)
	}
	if err != nil {
		return nil, nil, err
	}
	if cfg.witnesses > 0 {
		demos, werr := witness.RecoveryDemos(ctx, c, res.Trans, res.Invariant, res.FaultSpan, cfg.witnesses)
		if werr != nil {
			return nil, nil, werr
		}
		res.Witnesses = demos
	}
	return c, res, nil
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
// (WithAlgorithm, WithWitnesses, WithCostModel) are accepted and ignored.
func Verify(ctx context.Context, c *Compiled, res *Result, opts ...Option) (report *Report, err error) {
	cfg := repairConfig{opts: repair.DefaultOptions()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	eng, err := program.NewEngineMode(c, program.Mode(cfg.opts.Mode), cfg.opts.Workers)
	if err != nil {
		return nil, err
	}
	cfg.opts.ApplyEngine(eng)
	// Verification is a run boundary of its own: a *bdd.BudgetError panic
	// from c's manager (whose budget may have been armed by the synthesis
	// that produced res, or by this call's options) must come back as an
	// error here, not unwind into the caller.
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(*BudgetError)
			if !ok {
				panic(r)
			}
			report, err = nil, fmt.Errorf("repro: %w", be)
		}
	}()
	return verify.ResultEngine(ctx, eng, res)
}
