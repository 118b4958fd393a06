package bdd

// A Pool fans symbolic work out across private worker Managers. Managers are
// not safe for concurrent use, so intra-job parallelism works by migration
// rather than sharing: the owning manager Exports the predicates a task
// needs, a worker Imports them into its own manager, computes there, and the
// result travels back as a buffer that the owner Imports in task order.
//
// Determinism: an ROBDD is canonical, so the buffer encoding a function is
// the same no matter which manager produced it, and merging results in task
// order makes the owning manager evolve identically for any worker count or
// goroutine schedule.

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of private worker Managers.
type Pool struct {
	workers []*Manager
}

// NewPool wraps the given worker managers (one goroutine will drive each).
// The managers must have been prepared with the same variable order as the
// owning manager, and must not be used outside the pool while a Map call is
// running.
func NewPool(workers []*Manager) *Pool {
	if len(workers) == 0 {
		panic("bdd: NewPool: need at least one worker manager")
	}
	return &Pool{workers: workers}
}

// Map evaluates fn once per task index in [0, tasks), distributing tasks
// across the pool's workers, and returns the produced buffers in task order.
// fn runs on the goroutine that owns w, the worker-th manager passed to
// NewPool, and must confine all BDD operations to that manager. The first
// error (or a context cancellation, reported as ctx.Err()) stops the pool
// after in-flight tasks finish.
func (p *Pool) Map(ctx context.Context, tasks int, fn func(w *Manager, worker, task int) ([]byte, error)) ([][]byte, error) {
	results := make([][]byte, tasks)
	if tasks == 0 {
		return results, nil
	}
	nw := len(p.workers)
	if nw > tasks {
		nw = tasks
	}

	var (
		next    atomic.Int64
		stop    atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstEr = err })
		stop.Store(true)
	}
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for !stop.Load() {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				task := int(next.Add(1)) - 1
				if task >= tasks {
					return
				}
				buf, err := runTask(p.workers[worker], worker, task, fn)
				if err != nil {
					fail(err)
					return
				}
				results[task] = buf
			}
		}(w)
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return results, nil
}

// runTask invokes fn for one task, converting a node-budget panic raised in
// the worker manager into an ordinary error: a panic on a pool goroutine
// would otherwise kill the whole process (in the daemon, every job). Other
// panics propagate unchanged.
func runTask(w *Manager, worker, task int, fn func(w *Manager, worker, task int) ([]byte, error)) (buf []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			if be, ok := r.(*BudgetError); ok {
				err = be
				return
			}
			panic(r)
		}
	}()
	return fn(w, worker, task)
}
