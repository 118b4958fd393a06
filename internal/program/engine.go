package program

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/bdd"
)

// Mode names the engine; it remains for bench/trace.go.
type Mode string

// ModePartitioned is Mode's only value; it remains for bench/trace.go.
const ModePartitioned Mode = "partitioned"

// ParseMode accepts "" and "partitioned" and rejects every other mode, so a
// caller still setting repair.Options.Mode to the removed "shared" engine
// gets an error instead of a silent fallback.
func ParseMode(s string) (Mode, error) {
	if s != "" && Mode(s) != ModePartitioned {
		return "", fmt.Errorf("program: engine mode %q is not available: the shared engine was removed and %q is the only one", s, ModePartitioned)
	}
	return ModePartitioned, nil
}

// Engine couples a compiled program (the owner) with a pool of private worker
// clones for intra-job parallelism. BDD managers are single-threaded, so the
// engine parallelizes by migration: the owner Exports the predicates a task
// needs, a worker Imports them into its clone's manager, computes there, and
// the canonical result buffer travels back to be merged on the owner in task
// order.
//
// Determinism: ROBDDs are canonical, so every intermediate fixpoint set is
// the same function regardless of which manager computed it, and merging in
// task order makes the synthesized Result — transitions, invariant,
// fault-span, and everything derived from them — identical for any worker
// count. (Only incidental manager statistics such as node counts differ.)
type Engine struct {
	// C is the owning compiled program; all results live in its manager.
	C *Compiled

	workers []*Compiled // one private clone per pool worker; nil when serial
	pool    *bdd.Pool

	// fix accumulates the unified fixpoint scheduler's work counters
	// (fixpoint.go) across the engine's lifetime.
	fix FixpointStats
	// fanoutMin overrides the scheduler's cost-aware fan-out threshold when
	// positive (0 selects fanoutMinFrontier); set by tests to force tiny
	// models through the parallel round paths.
	fanoutMin int
}

// ResolveWorkers maps a requested worker count to an effective one: values
// below 1 select GOMAXPROCS.
func ResolveWorkers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// NewEngine builds an engine over c with the given number of workers (values
// below 1 select GOMAXPROCS). One worker means the serial engine: every
// operation runs directly on the owner with no transfer overhead.
func NewEngine(c *Compiled, workers int) (*Engine, error) {
	e := &Engine{C: c}
	workers = ResolveWorkers(workers)
	if workers <= 1 {
		return e, nil
	}
	managers := make([]*bdd.Manager, 0, workers)
	for i := 0; i < workers; i++ {
		wc, err := c.Def.Compile()
		if err != nil {
			return nil, err
		}
		e.workers = append(e.workers, wc)
		managers = append(managers, wc.Space.M)
	}
	e.pool = bdd.NewPool(managers)
	return e, nil
}

// NewEngineMode is ParseMode followed by NewEngine. core.Run and the repro
// API build their engines through it, so repair.Options.Mode is validated;
// bench/trace.go calls it by this name.
func NewEngineMode(c *Compiled, mode Mode, workers int) (*Engine, error) {
	if _, err := ParseMode(string(mode)); err != nil {
		return nil, err
	}
	return NewEngine(c, workers)
}

// SerialEngine wraps c as a one-worker engine (no clones, no transfer).
func SerialEngine(c *Compiled) *Engine { return &Engine{C: c} }

// Mode returns ModePartitioned; it remains for bench/trace.go.
func (e *Engine) Mode() Mode { return ModePartitioned }

// Workers returns the engine's worker count (1 for the serial engine).
func (e *Engine) Workers() int {
	if e.pool == nil {
		return 1
	}
	return e.pool.Workers()
}

// SetNodeBudget applies a live-node ceiling to the owner manager and every
// worker clone. An operation that pushes any of them past the budget (after
// a collection) panics with *bdd.BudgetError, which Pool.Map and the run
// boundaries convert back into an ordinary error.
func (e *Engine) SetNodeBudget(n int64) {
	e.C.Space.M.SetNodeBudget(n)
	for _, wc := range e.workers {
		wc.Space.M.SetNodeBudget(n)
	}
}

// SetGCThreshold arms (or, with n <= 0, disarms) automatic collection on the
// owning manager and every worker manager.
func (e *Engine) SetGCThreshold(n int64) {
	e.C.Space.M.SetGCThreshold(n)
	for _, wc := range e.workers {
		wc.Space.M.SetGCThreshold(n)
	}
}

// SetReorderThreshold arms (or, with n <= 0, disarms) automatic variable
// reordering on the owning manager and every worker manager.
func (e *Engine) SetReorderThreshold(n int64) {
	e.C.Space.M.SetReorderThreshold(n)
	for _, wc := range e.workers {
		wc.Space.M.SetReorderThreshold(n)
	}
}

// syncOrders re-aligns every worker manager's variable order with the
// owner's. Called at the merge barriers before each fan-out — the workers
// are idle there, and matching orders keep both transfer directions on the
// fast structural path. Results would be identical without it (the transfer
// format carries the sender's order and Import rebuilds on mismatch);
// alignment is the cheap way, not the correct way.
func (e *Engine) syncOrders() {
	if e.pool == nil {
		return
	}
	ord := e.C.Space.M.Order()
	for _, wc := range e.workers {
		wc.Space.M.SetOrder(ord)
	}
}

// PeakLive returns the highest live-node count observed across the owner
// and all worker managers.
func (e *Engine) PeakLive() int64 {
	peak := e.C.Space.M.Stats().PeakLive
	for _, wc := range e.workers {
		if p := wc.Space.M.Stats().PeakLive; p > peak {
			peak = p
		}
	}
	return peak
}

// MapNodes evaluates fn once per task, with tasks distributed across the
// worker clones, and returns the results as nodes of the owning manager in
// task order. shared is one predicate every task reads (exported once,
// imported once per participating worker); inputs[task] is the task's own
// predicate. fn must confine its BDD operations to the *Compiled it is
// handed — the owner on the serial path, a worker clone otherwise.
func (e *Engine) MapNodes(ctx context.Context, shared bdd.Node, inputs []bdd.Node,
	fn func(c *Compiled, shared, input bdd.Node, task int) bdd.Node) ([]bdd.Node, error) {
	if e.pool == nil {
		// shared, the remaining inputs, and the already-produced results all
		// outlive the arbitrarily large fn calls in between — root them.
		sc := e.C.Space.M.Protect()
		defer sc.Release()
		sc.Keep(shared)
		for _, in := range inputs {
			sc.Keep(in)
		}
		out := make([]bdd.Node, len(inputs))
		for i, in := range inputs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[i] = sc.Keep(fn(e.C, shared, in, i))
		}
		return out, nil
	}
	m := e.C.Space.M
	e.syncOrders()
	sharedBuf := m.Export(shared)
	inputBufs := make([][]byte, len(inputs))
	for i, in := range inputs {
		inputBufs[i] = m.Export(in)
	}
	// Per-worker import of the shared predicate, done lazily by the single
	// goroutine that drives each worker (no locking needed). The import is
	// rooted in the worker's manager — it is reused across every task that
	// worker runs — and un-rooted after the pool drains.
	wShared := make([]bdd.Node, len(e.workers))
	wHave := make([]bool, len(e.workers))
	defer func() {
		for i, have := range wHave {
			if have {
				e.workers[i].Space.M.Deref(wShared[i])
			}
		}
	}()
	bufs, err := e.pool.Map(ctx, len(inputs), func(w *bdd.Manager, worker, task int) ([]byte, error) {
		wc := e.workers[worker]
		if !wHave[worker] {
			wShared[worker] = w.Ref(bdd.Import(w, sharedBuf))
			wHave[worker] = true
		}
		in := w.Ref(bdd.Import(w, inputBufs[task]))
		defer w.Deref(in)
		return w.Export(fn(wc, wShared[worker], in, task)), nil
	})
	if err != nil {
		return nil, err
	}
	// Later imports can trigger owner-side collections, so earlier results
	// must be rooted while the loop runs.
	sc := m.Protect()
	defer sc.Release()
	out := make([]bdd.Node, len(bufs))
	for i, b := range bufs {
		out[i] = sc.Keep(bdd.Import(m, b))
	}
	return out, nil
}

// MapProcs evaluates fn once per process of the program against a shared
// predicate — the shape of the per-process group-closure fan-outs (Step 2's
// maximal realizable subsets, the verifier's per-process checks).
func (e *Engine) MapProcs(ctx context.Context, shared bdd.Node,
	fn func(c *Compiled, j int, shared bdd.Node) bdd.Node) ([]bdd.Node, error) {
	inputs := make([]bdd.Node, len(e.C.Procs)) // placeholders; tasks are indexed by process
	return e.MapNodes(ctx, shared, inputs, func(c *Compiled, sh, _ bdd.Node, j int) bdd.Node {
		return fn(c, j, sh)
	})
}

// ReachableParts computes the forward reachability fixpoint of init under the
// partitioned transition relation, via the unified frontier-chained scheduler
// (fixpoint.go): frontier-only images with saturation-style firing, chained
// within worker blocks and merged across rounds. Every engine configuration
// computes the same least fixpoint.
func (e *Engine) ReachableParts(ctx context.Context, init bdd.Node, parts []bdd.Node) (bdd.Node, error) {
	return e.fixpoint(ctx, init, parts, false)
}

// BackwardReachableParts is the backward (preimage) counterpart of
// ReachableParts.
func (e *Engine) BackwardReachableParts(ctx context.Context, target bdd.Node, parts []bdd.Node) (bdd.Node, error) {
	return e.fixpoint(ctx, target, parts, true)
}
