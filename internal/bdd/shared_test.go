package bdd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// sharedFormula builds a deterministic formula over vars, different per seed.
// It exercises ands/ors/xors/negations, so concurrent builders collide on
// shared subterms.
func sharedFormula(m *Manager, vars []Node, seed int) Node {
	f := vars[seed%len(vars)]
	for i := 0; i < 3*len(vars); i++ {
		v := vars[(seed+i)%len(vars)]
		w := vars[(seed+2*i+1)%len(vars)]
		switch (seed + i) % 4 {
		case 0:
			f = m.And(f, m.Or(v, w))
		case 1:
			f = m.Or(f, m.And(v, m.Not(w)))
		case 2:
			f = m.Xor(f, m.And(v, w))
		case 3:
			f = m.ITE(v, f, m.Or(f, w))
		}
	}
	return f
}

// TestSharedCanonical runs the same formulas serially on the primary and
// concurrently on shared views, and checks that every result is the SAME
// node: in one hash-consed table, function identity is index identity.
func TestSharedCanonical(t *testing.T) {
	const tasks = 64
	m := New()
	defer func() { _ = m }()
	vars := m.NewVars(10)
	for _, x := range vars {
		m.Ref(x) // vars are held across GCs; the ring alone cannot root them
	}

	want := make([]Node, tasks)
	sc := m.Protect()
	defer sc.Release()
	for i := range want {
		want[i] = sc.Keep(sharedFormula(m, vars, i))
	}

	s := NewShared(m, 4)
	defer s.Close()
	got := make([]Node, tasks)
	s.Begin()
	err := RunSteal(context.Background(), s.Workers(), tasks, func(w, task int) error {
		v := s.View(w)
		got[task] = v.Ref(sharedFormula(v, vars, task))
		return nil
	})
	s.End()
	if err != nil {
		t.Fatalf("RunSteal: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d: shared node %d != serial node %d", i, got[i], want[i])
		}
	}
	for w := 0; w < s.Workers(); w++ {
		v := s.View(w)
		for n := range v.refs {
			delete(v.refs, n)
		}
	}
}

// TestSharedContention hammers the unique table: every worker builds the
// SAME formulas (maximal publish races), and all copies must come out as
// identical nodes. Run with -race; REPRO_GC_STRESS exercises the barrier GC
// between rounds.
func TestSharedContention(t *testing.T) {
	const workers, rounds, perRound = 8, 4, 24
	m := New()
	vars := m.NewVars(12)
	for _, x := range vars {
		m.Ref(x) // vars are held across GCs; the ring alone cannot root them
	}
	s := NewShared(m, workers)
	defer s.Close()

	for r := 0; r < rounds; r++ {
		got := make([][]Node, workers)
		s.Begin()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				v := s.View(w)
				for i := 0; i < perRound; i++ {
					got[w] = append(got[w], v.Ref(sharedFormula(v, vars, r*perRound+i)))
				}
			}(w)
		}
		wg.Wait()
		s.End()
		for w := 1; w < workers; w++ {
			for i := range got[0] {
				if got[w][i] != got[0][i] {
					t.Fatalf("round %d formula %d: worker %d got node %d, worker 0 got %d",
						r, i, w, got[w][i], got[0][i])
				}
			}
		}
		for w := 0; w < workers; w++ {
			v := s.View(w)
			for _, n := range got[w] {
				v.Deref(n)
			}
		}
		// Barrier housekeeping between rounds: the primary may collect and
		// reorder freely; the next Begin must resync the views.
		m.GC()
	}
}

// TestSharedBarrierGC checks that nodes rooted only in a worker view survive
// primary collections and sifting passes at the barrier, and that unrooted
// region garbage is actually reclaimed.
func TestSharedBarrierGC(t *testing.T) {
	m := New()
	vars := m.NewVars(8)
	for _, x := range vars {
		m.Ref(x) // vars are held across GCs; the ring alone cannot root them
	}
	s := NewShared(m, 2)
	defer s.Close()

	var kept []Node
	s.Begin()
	err := RunSteal(context.Background(), 2, 8, func(w, task int) error {
		v := s.View(w)
		f := sharedFormula(v, vars, task)
		if task%2 == 0 {
			v.Ref(f) // half the results stay rooted only in the views
		}
		return nil
	})
	s.End()
	if err != nil {
		t.Fatalf("RunSteal: %v", err)
	}
	for w := 0; w < 2; w++ {
		for n := range s.View(w).refs {
			kept = append(kept, n)
		}
	}
	if len(kept) == 0 {
		t.Fatal("no view-rooted results")
	}

	before := m.Size()
	m.GC()
	m.Reorder()
	m.GC()
	if m.Size() >= before {
		t.Fatalf("barrier GC reclaimed nothing: size %d -> %d", before, m.Size())
	}
	for _, n := range kept {
		m.CheckNode(n) // panics if a view-rooted node was swept
	}

	// Dropping the view roots releases the nodes at the next collection.
	for w := 0; w < 2; w++ {
		v := s.View(w)
		for n := range v.refs {
			for v.refs[n] > 0 {
				v.Deref(n)
			}
		}
	}
	m.FlushCaches() // recent rings of the views still pin; primary ring too
}

// TestSharedTableFull forces region exhaustion and checks the abort/grow/
// retry protocol: RunSteal surfaces ErrSharedTableFull, Bump doubles the
// capacity, and the rerun succeeds with canonical results.
func TestSharedTableFull(t *testing.T) {
	m := New()
	vars := m.NewVars(10)
	for _, x := range vars {
		m.Ref(x) // vars are held across GCs; the ring alone cannot root them
	}
	s := NewShared(m, 2)
	defer s.Close()
	s.minCap = 64 // tiny region capacity: the first round must blow

	want := make([]Node, 8)
	sawFull := false
	for attempt := 0; ; attempt++ {
		if attempt > 20 {
			t.Fatal("region capacity never became sufficient")
		}
		got := make([]Node, len(want))
		s.Begin()
		err := RunSteal(context.Background(), 2, len(want), func(w, task int) error {
			v := s.View(w)
			got[task] = v.Ref(sharedFormula(v, vars, task))
			return nil
		})
		s.End()
		if err == nil {
			copy(want, got)
			break
		}
		if !errors.Is(err, ErrSharedTableFull) {
			t.Fatalf("unexpected error: %v", err)
		}
		sawFull = true
		// Partial results from the aborted round must be un-rooted so the
		// garbage dies at the barrier, then grow and retry.
		for w := 0; w < 2; w++ {
			v := s.View(w)
			for n := range v.refs {
				delete(v.refs, n)
			}
		}
		s.Bump()
	}
	if !sawFull {
		t.Skip("capacity floor did not force exhaustion (thresholds changed?)")
	}
	for i, n := range want {
		if exp := sharedFormula(m, vars, i); n != exp {
			t.Fatalf("task %d: node %d != serial node %d after retry", i, n, exp)
		}
	}
}

// TestSharedExportIdentity checks the determinism contract end to end at
// this layer: the canonical export of a shared-mode result is byte-identical
// to the export of the serial result.
func TestSharedExportIdentity(t *testing.T) {
	serial := New()
	sv := serial.NewVars(10)
	for _, x := range sv {
		serial.Ref(x) // vars are held across GCs; the ring alone cannot root them
	}
	sRes := serial.Protect()
	defer sRes.Release()
	f0 := sRes.Keep(serial.OrN(
		sharedFormula(serial, sv, 3),
		sharedFormula(serial, sv, 17),
		sharedFormula(serial, sv, 29)))
	wantBuf := serial.Export(f0)

	m := New()
	vars := m.NewVars(10)
	for _, x := range vars {
		m.Ref(x) // vars are held across GCs; the ring alone cannot root them
	}
	s := NewShared(m, 3)
	defer s.Close()
	parts := make([]Node, 3)
	seeds := []int{3, 17, 29}
	s.Begin()
	err := RunSteal(context.Background(), 3, 3, func(w, task int) error {
		v := s.View(w)
		parts[task] = v.Ref(sharedFormula(v, vars, seeds[task]))
		return nil
	})
	s.End()
	if err != nil {
		t.Fatalf("RunSteal: %v", err)
	}
	sc := m.Protect()
	defer sc.Release()
	merged := sc.Keep(m.OrN(parts...))
	for w := 0; w < 3; w++ {
		v := s.View(w)
		for n := range v.refs {
			delete(v.refs, n)
		}
	}
	gotBuf := m.Export(merged)
	if string(gotBuf) != string(wantBuf) {
		t.Fatalf("shared-mode export differs from serial export (%d vs %d bytes)", len(gotBuf), len(wantBuf))
	}
}

// TestSharedViewCacheInvalidation makes a view cache an op result, lets the
// primary collect-and-reuse the slot between regions, and checks the next
// region does not serve the stale entry.
func TestSharedViewCacheInvalidation(t *testing.T) {
	m := New()
	vars := m.NewVars(6)
	for _, x := range vars {
		m.Ref(x) // vars are held across GCs; the ring alone cannot root them
	}
	s := NewShared(m, 1)
	defer s.Close()

	// Region 1: the view computes and caches f = x0&x1 .. chain, unrooted.
	s.Begin()
	err := RunSteal(context.Background(), 1, 1, func(w, task int) error {
		v := s.View(w)
		sharedFormula(v, vars, 5)
		return nil
	})
	s.End()
	if err != nil {
		t.Fatal(err)
	}

	// Barrier: primary churns enough to free the region garbage and reuse
	// slots for different functions, bumping the epoch.
	m.FlushCaches()
	m.GC()
	sc := m.Protect()
	for i := 0; i < 40; i++ {
		sc.Keep(sharedFormula(m, vars, 100+i))
	}
	sc.Release()
	m.GC()

	// Region 2: recompute the same formula; a stale cache hit on a reused
	// slot would yield a wrong (or freed) node.
	var got Node
	s.Begin()
	err = RunSteal(context.Background(), 1, 1, func(w, task int) error {
		v := s.View(w)
		got = v.Ref(sharedFormula(v, vars, 5))
		return nil
	})
	s.End()
	if err != nil {
		t.Fatal(err)
	}
	m.CheckNode(got)
	if want := sharedFormula(m, vars, 5); got != want {
		t.Fatalf("stale view cache: got node %d, want %d", got, want)
	}
	s.View(0).Deref(got)
}

// TestSharedBudgetAtBarrier checks that a node budget blown inside a region
// surfaces as *BudgetError from End's safe point, like serial mode.
func TestSharedBudgetAtBarrier(t *testing.T) {
	m := New()
	vars := m.NewVars(12)
	for _, x := range vars {
		m.Ref(x) // vars are held across GCs; the ring alone cannot root them
	}
	m.SetNodeBudget(40) // far below what the formulas need
	s := NewShared(m, 2)
	defer s.Close()

	s.Begin()
	err := RunSteal(context.Background(), 2, 6, func(w, task int) error {
		v := s.View(w)
		v.Ref(sharedFormula(v, vars, task))
		return nil
	})
	if err != nil {
		t.Fatalf("RunSteal: %v", err)
	}
	defer func() {
		r := recover()
		be, ok := r.(*BudgetError)
		if !ok {
			t.Fatalf("End did not panic *BudgetError (got %v)", r)
		}
		if be.Budget != 40 || be.Live <= 40 {
			t.Fatalf("implausible budget error: %v", be)
		}
	}()
	s.End()
	t.Fatal("End returned despite blown budget")
}

// TestRunStealCoverage checks the scheduler itself: every task runs exactly
// once for various worker/task shapes, and errors stop the run.
func TestRunStealCoverage(t *testing.T) {
	for _, shape := range []struct{ workers, tasks int }{
		{1, 1}, {1, 7}, {4, 4}, {4, 17}, {8, 3}, {3, 100},
	} {
		var mu sync.Mutex
		ran := make(map[int]int)
		err := RunSteal(context.Background(), shape.workers, shape.tasks, func(w, task int) error {
			mu.Lock()
			ran[task]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", shape, err)
		}
		if len(ran) != shape.tasks {
			t.Fatalf("%+v: ran %d distinct tasks", shape, len(ran))
		}
		for task, n := range ran {
			if n != 1 {
				t.Fatalf("%+v: task %d ran %d times", shape, task, n)
			}
		}
	}

	wantErr := fmt.Errorf("boom")
	err := RunSteal(context.Background(), 4, 100, func(w, task int) error {
		if task == 13 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("error not surfaced: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RunSteal(ctx, 4, 100, func(w, task int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not surfaced: %v", err)
	}
}
