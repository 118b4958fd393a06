package bdd

// This file implements the work-stealing scheduler for shared-memory parallel
// regions, at two grains:
//
//   - Task grain (RunSteal, Shared.Run): whole operations — partition images,
//     per-process subset checks — dealt into per-worker deques in contiguous
//     blocks. A worker pops its own deque from the back (LIFO, cache-warm)
//     and, when empty, steals from the front of other workers' deques (FIFO,
//     taking the oldest task first), scanning round-robin from its right
//     neighbor. The steal grain is one task: coarse enough that a mutex per
//     deque is invisible next to the BDD work inside.
//
//   - Operation grain (fork/join apply, Shared.Run only): inside a running
//     task, the top recursion levels of And/Or/Diff/AndExists spawn their
//     high branch as a stealable opTask on the spawner's own deque, compute
//     the low branch inline, and join before the mk and the cache write. If
//     nobody stole the spawn, the join pops it back (it is necessarily the
//     back item — joins nest LIFO) and runs it inline on the spawner's view,
//     so an uncontended fork costs one deque push/pop. If a thief took it,
//     the thief executes it on the thief's own view (private caches, same
//     shared node table) and publishes the result through the opTask's
//     atomic state word; the spawner spins with Gosched until it lands.
//
// Memory model of the join: the thief's plain writes (node records behind its
// chunk-private claims, the opTask result field) happen before its atomic
// Store of opTaskDone, and the spawner's atomic Load of opTaskDone happens
// before it reads the result — one release/acquire edge. Nodes the thief
// merely adopted from the shared unique table are covered transitively by
// the CAS-publish edge of whoever created them (see shared.go). So every
// node record reachable from the joined result is visible to the spawner
// before it builds on top of it.
//
// Deadlock freedom: only top-level workers steal, a popped opTask is always
// executed to completion (no stop-check between pop and run), and the
// spawner-waits-for-thief relation follows spawn edges, which form a DAG —
// a spin in forkJoin therefore always terminates. If the thief aborts
// (shared table full), it marks the opTask aborted and sets the team-wide
// abort flag; spinners convert either signal back into the table-full panic
// so the whole round unwinds to the retry loop.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opTask is one spawned high branch of a forked apply recursion.
type opTask struct {
	op    uint32 // opAnd, opOr, opDiff, or opAndExists
	f, g  Node
	cube  Node   // quantification cube (opAndExists only)
	res   Node   // written by the executor before publishing state
	state uint32 // atomic: opTaskPending -> opTaskDone | opTaskAborted
}

const (
	opTaskPending uint32 = iota
	opTaskDone
	opTaskAborted
)

// opAndExists tags AndExists opTasks; it lives outside the op-cache code
// space (bdd.go) on purpose — opTask.op is a scheduler discriminant, not a
// cache key.
const opAndExists uint32 = 1 << 30

// stealItem is one deque entry: a top-level task index, or a spawned opTask.
type stealItem struct {
	task int
	op   *opTask // nil for top-level tasks
}

// stealDeque is one worker's queue. A plain mutex suffices: every operation
// is O(1), and the fork throttle keeps queues short.
type stealDeque struct {
	mu    sync.Mutex
	items []stealItem
}

// popBack removes the worker's own next item (LIFO end).
func (d *stealDeque) popBack() (stealItem, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return stealItem{}, false
	}
	it := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return it, true
}

// popBackIf removes the back item iff it is the given opTask — the join-side
// check for "nobody stole my spawn". Spawns nest strictly (the spawner joins
// in reverse push order), so a spawn still in the deque is always the back
// item.
func (d *stealDeque) popBackIf(ot *opTask) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 || d.items[len(d.items)-1].op != ot {
		return false
	}
	d.items = d.items[:len(d.items)-1]
	return true
}

// popFront removes an item for a thief (FIFO end).
func (d *stealDeque) popFront() (stealItem, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return stealItem{}, false
	}
	it := d.items[0]
	d.items = d.items[1:]
	return it, true
}

// push appends an item at the LIFO end.
func (d *stealDeque) push(it stealItem) {
	d.mu.Lock()
	d.items = append(d.items, it)
	d.mu.Unlock()
}

// length returns the current queue length (throttle input; approximate is
// fine, the lock just makes the read well-defined).
func (d *stealDeque) length() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

const (
	// forkThrottle caps the spawner's deque length: once this many items wait
	// unstolen there is no idle worker to feed, so deeper recursions run
	// serially (and uncontended joins stay one push/pop).
	forkThrottle = 8
	// spinIdleRounds is how many empty pop/steal scans an idle worker burns
	// on Gosched before backing off to short sleeps.
	spinIdleRounds = 64
)

// forkLevelFor bounds fork points to the top slice of the variable order:
// high branches near the root are the big, balanced halves worth shipping to
// another worker; deeper splits are too fine to pay a deque round-trip for.
func forkLevelFor(numVars int) int32 {
	l := numVars / 4
	if l < 4 {
		l = 4
	}
	if l > 16 {
		l = 16
	}
	return int32(l)
}

// stealTeam is the shared state of one scheduler run: the deques, the
// outstanding-task count, the abort flag, and the fork/join counters.
// views is nil for plain RunSteal (no fork/join; workers exit as soon as
// every deque is empty) and non-nil for Shared.Run (workers stay to steal
// spawned opTasks until every top-level task has finished).
type stealTeam struct {
	deques    []stealDeque
	views     []*Manager
	forkLevel int32
	remaining int64 // atomic: top-level tasks not yet finished
	abort     uint32
	spawns    int64
	steals    int64
}

func newStealTeam(workers, tasks int, views []*Manager, forkLevel int32) *stealTeam {
	t := &stealTeam{
		deques:    make([]stealDeque, workers),
		views:     views,
		forkLevel: forkLevel,
		remaining: int64(tasks),
	}
	for w := 0; w < workers; w++ {
		lo, hi := w*tasks/workers, (w+1)*tasks/workers
		for i := lo; i < hi; i++ {
			t.deques[w].items = append(t.deques[w].items, stealItem{task: i})
		}
	}
	return t
}

// run drives the worker goroutines. The first error stops the run after
// in-flight tasks finish; context cancellation is reported as ctx.Err().
func (t *stealTeam) run(ctx context.Context, fn func(worker, task int) error) error {
	workers := len(t.deques)
	var (
		stop    = make(chan struct{})
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	fail := func(err error) {
		errOnce.Do(func() {
			firstEr = err
			close(stop)
		})
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			idle := 0
			for {
				if stopped() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				it, ok := t.deques[worker].popBack()
				stolen := false
				if !ok {
					// Own deque drained: steal the oldest item from the first
					// non-empty victim, scanning from the right neighbor.
					for i := 1; i < workers && !ok; i++ {
						it, ok = t.deques[(worker+i)%workers].popFront()
					}
					stolen = ok
				}
				if !ok {
					if t.views == nil || atomic.LoadInt64(&t.remaining) == 0 {
						return // run complete (or, teamless, nothing left to pop)
					}
					// Fork/join mode: running tasks may still spawn stealable
					// work; wait for it politely.
					idle++
					if idle > spinIdleRounds {
						time.Sleep(20 * time.Microsecond)
					} else {
						runtime.Gosched()
					}
					continue
				}
				idle = 0
				if it.op != nil {
					if stolen {
						atomic.AddInt64(&t.steals, 1)
					}
					if err := t.runOpItem(worker, it.op); err != nil {
						fail(err)
						return
					}
					continue
				}
				err := runStealTask(worker, it.task, fn)
				atomic.AddInt64(&t.remaining, -1)
				if err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstEr
}

// runOpItem executes a stolen (or orphaned) opTask on this worker's view and
// publishes the result. On a table-full abort it marks the task and the team
// so any spinning joiner unwinds too.
func (t *stealTeam) runOpItem(worker int, ot *opTask) (err error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.StoreUint32(&t.abort, 1)
			atomic.StoreUint32(&ot.state, opTaskAborted)
			if _, ok := r.(sharedFullPanic); ok {
				err = ErrSharedTableFull
				return
			}
			panic(r)
		}
	}()
	ot.res = t.views[worker].runOpTask(ot)
	atomic.StoreUint32(&ot.state, opTaskDone)
	return nil
}

// RunSteal runs fn once per task index in [0, tasks) on `workers` goroutines
// (fn's worker argument identifies the goroutine, e.g. to pick a Shared
// view). The first error stops the run after in-flight tasks finish; context
// cancellation is reported as ctx.Err(). Panics raised by the BDD layer are
// converted to errors at the goroutine boundary — *BudgetError (node budget
// blown) and ErrSharedTableFull (region capacity exhausted, retry after
// Shared.Bump) — so they cannot kill the process; other panics propagate.
//
// RunSteal schedules at task grain only. Shared.Run additionally enables
// op-internal fork/join on the session's views.
func RunSteal(ctx context.Context, workers, tasks int, fn func(worker, task int) error) error {
	if tasks == 0 {
		return nil
	}
	if workers > tasks {
		workers = tasks
	}
	return newStealTeam(workers, tasks, nil, 0).run(ctx, fn)
}

// runStealTask invokes fn for one task, converting the BDD layer's panics
// into errors at the goroutine boundary (see RunSteal).
func runStealTask(worker, task int, fn func(worker, task int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch p := r.(type) {
			case *BudgetError:
				err = p
			case sharedFullPanic:
				err = ErrSharedTableFull
			default:
				panic(r)
			}
		}
	}()
	return fn(worker, task)
}

// --- fork/join hooks used by apply.go / quant.go --------------------------

// shouldFork reports whether a recursion at the given level should spawn its
// high branch: only inside a Shared.Run, only in the top slice of the
// variable order, and only while the spawner's deque is short enough that an
// idle worker might actually take it.
func (m *Manager) shouldFork(level int32) bool {
	t := m.team
	return t != nil && level < t.forkLevel && t.deques[m.worker].length() < forkThrottle
}

// forkSpawn pushes the high branch as a stealable opTask on this worker's
// own deque and returns the handle to join on.
func (m *Manager) forkSpawn(op uint32, f, g, cube Node) *opTask {
	ot := &opTask{op: op, f: f, g: g, cube: cube}
	t := m.team
	t.deques[m.worker].push(stealItem{op: ot})
	atomic.AddInt64(&t.spawns, 1)
	return ot
}

// forkJoin resolves a spawned opTask: pop-and-run inline if nobody stole it,
// otherwise spin until the thief publishes (or the round aborts).
func (m *Manager) forkJoin(ot *opTask) Node {
	t := m.team
	if t.deques[m.worker].popBackIf(ot) {
		return m.runOpTask(ot)
	}
	for {
		switch atomic.LoadUint32(&ot.state) {
		case opTaskDone:
			return ot.res
		case opTaskAborted:
			panic(sharedFullPanic{})
		}
		if atomic.LoadUint32(&t.abort) == 1 {
			panic(sharedFullPanic{})
		}
		runtime.Gosched()
	}
}

// runOpTask dispatches an opTask to the private recursion it stands for, on
// the receiver (the executing worker's view — its caches, the shared table).
func (m *Manager) runOpTask(ot *opTask) Node {
	switch ot.op {
	case opAnd:
		return m.andRec(ot.f, ot.g)
	case opOr:
		return m.orRec(ot.f, ot.g)
	case opDiff:
		return m.diffRec(ot.f, ot.g)
	default:
		return m.andExistsRec(ot.f, ot.g, ot.cube)
	}
}
