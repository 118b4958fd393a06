package program

import (
	"context"
	"fmt"
	"runtime"
	"sync"

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

// Engine couples a compiled program (the owner) with private worker clones
// for intra-job parallelism. BDD managers are single-threaded, so the engine
// parallelizes by migration: the owner Exports the predicates a task needs,
// a worker Imports them into its clone's manager, computes there, and the
// canonical result buffer travels back to be merged on the owner in task
// order.
//
// Only the per-process closures fan out (MapNodes, Split), and only when
// their shared predicate is large enough to pay for the transfers (see
// fanoutMinShared). Every reachability fixpoint, and every closure below the
// gate, runs on the owner and its warm caches. The clones are compiled by
// the first fan-out that needs them, so an engine whose fan-outs all stay
// below the gate costs what a serial one does.
//
// Determinism: ROBDDs are canonical, so every intermediate set is the same
// function regardless of which manager computed it, and merging in task
// order makes the synthesized Result — transitions, invariant,
// fault-span, and everything derived from them — identical for any worker
// count. (Only incidental manager statistics such as node counts differ.)
type Engine struct {
	// C is the owning compiled program; all results live in its manager.
	C *Compiled

	width   int         // requested worker count; 1 is serial
	workers []*Compiled // one private clone per pool worker; nil until built
	pool    *bdd.Pool
	// tuning holds the manager settings made so far, in order; clones built
	// later replay them.
	tuning []func(*bdd.Manager)

	// fix accumulates the fixpoint work counters (fixpoint.go) across the
	// engine's lifetime.
	fix FixpointStats
	// fanoutMin overrides fanoutMinShared when positive; tests set it to
	// force small models through the pool.
	fanoutMin int
}

// fanoutMinShared is the size, in BDD nodes, of the shared predicate below
// which MapNodes runs on the owner. Below it the transfers, and on the first
// fan-out the clone build, cost more than the closures save (DESIGN.md §12
// has the measured table). A node count rather than a timing keeps the
// choice, and every manager statistic with it, a function of the input.
const fanoutMinShared = 4096

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
// operation runs directly on the owner with no transfer overhead. With more,
// the worker clones are compiled by the first fan-out that needs them; a
// clone that fails to compile fails that fan-out.
func NewEngine(c *Compiled, workers int) *Engine {
	return &Engine{C: c, width: ResolveWorkers(workers)}
}

// NewEngineMode is ParseMode followed by NewEngine. internal/core builds
// every run's engine through it, so repair.Options.Mode is validated;
// bench/trace.go calls it by this name.
func NewEngineMode(c *Compiled, mode Mode, workers int) (*Engine, error) {
	if _, err := ParseMode(string(mode)); err != nil {
		return nil, err
	}
	return NewEngine(c, workers), nil
}

// SerialEngine wraps c as a one-worker engine (no clones, no transfer).
func SerialEngine(c *Compiled) *Engine { return &Engine{C: c, width: 1} }

// Mode returns ModePartitioned; it remains for bench/trace.go.
func (e *Engine) Mode() Mode { return ModePartitioned }

// Workers returns the engine's requested worker count (1 for the serial
// engine), whether or not a fan-out has built the clones yet.
func (e *Engine) Workers() int { return e.width }

// tune applies a manager setting to the owner and every built clone, and
// records it for the clones built later.
func (e *Engine) tune(f func(m *bdd.Manager)) {
	f(e.C.Space.M)
	for _, wc := range e.workers {
		f(wc.Space.M)
	}
	e.tuning = append(e.tuning, f)
}

// SetNodeBudget applies a live-node ceiling to the owner manager and every
// worker clone. An operation that pushes any of them past the budget (after
// a collection) panics with *bdd.BudgetError, which Pool.Map and the run
// boundaries convert back into an ordinary error.
func (e *Engine) SetNodeBudget(n int64) {
	e.tune(func(m *bdd.Manager) { m.SetNodeBudget(n) })
}

// SetReorderThreshold arms (or, with n <= 0, disarms) automatic variable
// reordering on the owning manager and every worker manager.
func (e *Engine) SetReorderThreshold(n int64) {
	e.tune(func(m *bdd.Manager) { m.SetReorderThreshold(n) })
}

// buildWorkers compiles the worker clones, one goroutine per clone, and
// replays the manager settings made so far. Compilation is deterministic,
// so every clone has the owner's initial variable order; syncOrders aligns
// it with the current one before each transfer.
func (e *Engine) buildWorkers() error {
	clones := make([]*Compiled, e.width)
	errs := make([]error, e.width)
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clones[i], errs[i] = e.C.Def.Compile()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	managers := make([]*bdd.Manager, len(clones))
	for i, wc := range clones {
		for _, f := range e.tuning {
			f(wc.Space.M)
		}
		managers[i] = wc.Space.M
	}
	e.workers, e.pool = clones, bdd.NewPool(managers)
	return nil
}

// syncOrders re-aligns every worker manager's variable order with the
// owner's. Called before each fan-out — the workers are idle there, and
// matching orders keep both transfer directions on the fast structural
// path. Results would be identical without it (the transfer format carries
// the sender's order and Import rebuilds on mismatch); alignment is the
// cheap way, not the correct way.
func (e *Engine) syncOrders() {
	ord := e.C.Space.M.Order()
	for _, wc := range e.workers {
		wc.Space.M.SetOrder(ord)
	}
}

// PeakLive returns the highest live-node count observed across the owner
// and all worker managers built so far.
func (e *Engine) PeakLive() int64 {
	peak := e.C.Space.M.Stats().PeakLive
	for _, wc := range e.workers {
		if p := wc.Space.M.Stats().PeakLive; p > peak {
			peak = p
		}
	}
	return peak
}

// fansOut reports whether a MapNodes call over shared goes to the pool: the
// engine has more than one worker and shared has at least the gate's node
// count.
func (e *Engine) fansOut(shared bdd.Node) bool {
	if e.width <= 1 {
		return false
	}
	gate := fanoutMinShared
	if e.fanoutMin > 0 {
		gate = e.fanoutMin
	}
	return e.C.Space.M.NodeCount(shared) >= gate
}

// MapNodes evaluates fn once per task and returns the results as nodes of
// the owning manager in task order. shared is one predicate every task
// reads; inputs[task] is the task's own predicate. When shared is at least
// fanoutMinShared nodes, the tasks are distributed across the worker clones
// (built here on the first such call): shared is exported once and imported
// once per participating worker. Otherwise every task runs on the owner.
// fn must confine its BDD operations to the *Compiled it is handed — the
// owner or a worker clone.
func (e *Engine) MapNodes(ctx context.Context, shared bdd.Node, inputs []bdd.Node,
	fn func(c *Compiled, shared, input bdd.Node, task int) bdd.Node) ([]bdd.Node, error) {
	if !e.fansOut(shared) {
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
	if e.pool == nil {
		if err := e.buildWorkers(); err != nil {
			return nil, err
		}
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

// Split returns each process's maximal realizable subset of rel, part j being
// Procs[j].MaxRealizableSubset(rel): Step 2 of the lazy algorithm, the
// verifier's per-process partition and realizability check (Definitions
// 19–20), witness extraction's per-process slices and ProgramRealizable all
// run this one split. It fans out through MapNodes, so like MapNodes'
// results the parts are unrooted on return: a caller roots them before its
// next BDD operation.
func (e *Engine) Split(ctx context.Context, rel bdd.Node) ([]bdd.Node, error) {
	inputs := make([]bdd.Node, len(e.C.Procs)) // placeholders; tasks are indexed by process
	return e.MapNodes(ctx, rel, inputs, func(c *Compiled, shared, _ bdd.Node, j int) bdd.Node {
		return c.Procs[j].MaxRealizableSubset(shared)
	})
}

// ReachableParts computes the forward reachability fixpoint of init under the
// partitioned transition relation (fixpoint.go): frontier-only images with
// saturation-style firing, chained on the owner for any worker count.
func (e *Engine) ReachableParts(ctx context.Context, init bdd.Node, parts []bdd.Node) (bdd.Node, error) {
	return e.fixpoint(ctx, init, parts, false)
}

// BackwardReachableParts is the backward (preimage) counterpart of
// ReachableParts.
func (e *Engine) BackwardReachableParts(ctx context.Context, target bdd.Node, parts []bdd.Node) (bdd.Node, error) {
	return e.fixpoint(ctx, target, parts, true)
}
