package bdd

// Tests for op-internal fork/join (Shared.Run): results must be the same
// canonical nodes the serial engine produces, the spawn/steal counters must
// move, surplus workers must help on a single giant operation, and the
// table-full abort must unwind cleanly through spinning joiners.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// forkFormula builds a wide pseudo-random DNF whose BDD root sits at the top
// of the order, so forked recursions get big, balanced high branches. The
// LCG makes it deterministic per seed.
func forkFormula(m *Manager, vars []Node, seed int) Node {
	r := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		r = r*6364136223846793005 + 1442695040888963407
		return int((r >> 33) % uint64(n))
	}
	f := False
	for c := 0; c < 40; c++ {
		cube := True
		for k := 0; k < 6; k++ {
			v := vars[next(len(vars))]
			if next(2) == 0 {
				v = m.Not(v)
			}
			cube = m.And(cube, v)
		}
		f = m.Or(f, cube)
	}
	return f
}

// TestSharedForkJoin runs forked And/Or/AndExists across views and checks
// node-identity with the serial results (one hash-consed table: function
// identity is index identity), plus that forks actually fired.
func TestSharedForkJoin(t *testing.T) {
	m := New()
	vars := m.NewVars(24)
	for _, x := range vars {
		m.Ref(x) // vars are held across GCs; the ring alone cannot root them
	}
	evens := make([]int, 0, 12)
	for i := 0; i < len(vars); i += 2 {
		evens = append(evens, i)
	}
	sc := m.Protect()
	defer sc.Release()
	cube := sc.Keep(m.Cube(evens))

	const pairs = 6
	fs := make([]Node, 2*pairs)
	for i := range fs {
		fs[i] = sc.Keep(forkFormula(m, vars, i))
	}
	want := make([]Node, 3*pairs)
	for p := 0; p < pairs; p++ {
		f, g := fs[2*p], fs[2*p+1]
		want[3*p+0] = sc.Keep(m.And(f, g))
		want[3*p+1] = sc.Keep(m.Or(f, g))
		want[3*p+2] = sc.Keep(m.AndExists(f, g, cube))
	}

	s := NewShared(m, 4)
	defer s.Close()
	got := make([]Node, len(want))
	s.Begin()
	err := s.Run(context.Background(), len(want), func(w, task int) error {
		v := s.View(w)
		f, g := fs[2*(task/3)], fs[2*(task/3)+1]
		var r Node
		switch task % 3 {
		case 0:
			r = v.And(f, g)
		case 1:
			r = v.Or(f, g)
		default:
			r = v.AndExists(f, g, cube)
		}
		got[task] = v.Ref(r)
		return nil
	})
	s.End()
	if err != nil {
		t.Fatalf("Shared.Run: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d: forked node %d != serial node %d", i, got[i], want[i])
		}
	}
	spawns, steals := s.OpStats()
	if spawns == 0 {
		t.Fatal("no opTasks spawned: fork sites never fired")
	}
	if steals < 0 || steals > spawns {
		t.Fatalf("implausible steal count %d for %d spawns", steals, spawns)
	}
	for w := 0; w < s.Workers(); w++ {
		v := s.View(w)
		for n := range v.refs {
			delete(v.refs, n)
		}
	}
}

// TestSharedForkJoinSingleTask gives 4 workers ONE giant conjunction: without
// fork/join three of them would idle; with it the task must still produce the
// serial result and spawn stealable branches.
func TestSharedForkJoinSingleTask(t *testing.T) {
	m := New()
	vars := m.NewVars(24)
	for _, x := range vars {
		m.Ref(x)
	}
	sc := m.Protect()
	defer sc.Release()
	f := sc.Keep(forkFormula(m, vars, 101))
	g := sc.Keep(forkFormula(m, vars, 202))
	want := sc.Keep(m.And(f, g))

	s := NewShared(m, 4)
	defer s.Close()
	var got Node
	s.Begin()
	err := s.Run(context.Background(), 1, func(w, task int) error {
		v := s.View(w)
		got = v.Ref(v.And(f, g))
		return nil
	})
	s.End()
	if err != nil {
		t.Fatalf("Shared.Run: %v", err)
	}
	if got != want {
		t.Fatalf("forked single-task result %d != serial %d", got, want)
	}
	if spawns, _ := s.OpStats(); spawns == 0 {
		t.Fatal("single-task region spawned nothing")
	}
	for w := 0; w < s.Workers(); w++ {
		v := s.View(w)
		for n := range v.refs {
			delete(v.refs, n)
		}
	}
}

// TestSharedForkJoinDiff runs Diff through the fork/join path: forked
// opDiff recursions across four views must land on the serial nodes, and an
// opDiff task that its spawner never joins must be stolen and executed on the
// thief's view through runOpTask.
func TestSharedForkJoinDiff(t *testing.T) {
	m := New()
	vars := m.NewVars(24)
	for _, x := range vars {
		m.Ref(x)
	}
	sc := m.Protect()
	defer sc.Release()
	const tasks = 4
	fs := make([]Node, tasks+1)
	for i := range fs {
		fs[i] = sc.Keep(forkFormula(m, vars, 31*i+5))
	}
	want := make([]Node, tasks)
	for i := range want {
		want[i] = sc.Keep(m.Diff(fs[i], fs[i+1]))
	}

	s := NewShared(m, 4)
	defer s.Close()
	got := make([]Node, tasks)
	s.Begin()
	err := s.Run(context.Background(), tasks, func(w, task int) error {
		v := s.View(w)
		got[task] = v.Ref(v.Diff(fs[task], fs[task+1]))
		return nil
	})
	s.End()
	if err != nil {
		t.Fatalf("Shared.Run: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d: forked Diff node %d != serial node %d", i, got[i], want[i])
		}
	}
	spawns, _ := s.OpStats()
	if spawns == 0 {
		t.Fatal("no opDiff tasks spawned: fork sites never fired")
	}

	// Forced steal: the spawner waits on the opTask without popping it back,
	// so only the other worker can run it.
	var stolen Node
	s.Begin()
	err = s.Run(context.Background(), 1, func(w, task int) error {
		ot := s.View(w).forkSpawn(opDiff, fs[0], fs[1], False)
		for atomic.LoadUint32(&ot.state) == opTaskPending {
			runtime.Gosched()
		}
		if atomic.LoadUint32(&ot.state) != opTaskDone {
			return errors.New("stolen opDiff task aborted")
		}
		stolen = s.View(w).Ref(ot.res)
		return nil
	})
	s.End()
	if err != nil {
		t.Fatalf("Shared.Run: %v", err)
	}
	if stolen != want[0] {
		t.Fatalf("stolen opDiff task gave node %d, serial Diff node %d", stolen, want[0])
	}
	if _, steals := s.OpStats(); steals == 0 {
		t.Fatal("the unjoined opDiff task was never stolen")
	}
	for w := 0; w < s.Workers(); w++ {
		v := s.View(w)
		for n := range v.refs {
			delete(v.refs, n)
		}
	}
}

// TestSharedForkJoinTableFull exhausts a tiny region while forked opTasks are
// in flight: every abort must unwind (spawner spins see the abort flag, no
// hang), and after Bump the retry must produce the serial results.
func TestSharedForkJoinTableFull(t *testing.T) {
	m := New()
	vars := m.NewVars(20)
	for _, x := range vars {
		m.Ref(x)
	}
	sc := m.Protect()
	defer sc.Release()
	const tasks = 4

	s := NewShared(m, 3)
	defer s.Close()
	s.minCap = 64 // tiny region capacity: the first round must blow
	sawFull := false
	got := make([]Node, tasks)
	for attempt := 0; ; attempt++ {
		if attempt > 20 {
			t.Fatal("region capacity never became sufficient")
		}
		s.Begin()
		err := s.Run(context.Background(), tasks, func(w, task int) error {
			v := s.View(w)
			got[task] = v.Ref(v.And(forkFormula(v, vars, 7*task), forkFormula(v, vars, 7*task+3)))
			return nil
		})
		s.End()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrSharedTableFull) {
			t.Fatalf("unexpected error: %v", err)
		}
		sawFull = true
		for w := 0; w < s.Workers(); w++ {
			v := s.View(w)
			for n := range v.refs {
				delete(v.refs, n)
			}
		}
		s.Bump()
		m.GC()
	}
	if !sawFull {
		t.Fatal("tiny region never reported ErrSharedTableFull")
	}
	// The serial reference, computed after the fact in the same hash-consed
	// table, must land on the exact nodes the forked rounds produced. Each
	// operand is Kept before building the next: forkFormula runs more ops
	// than the recent ring holds, so a ring-rooted result would be collected
	// mid-expression under GC stress.
	for i := 0; i < tasks; i++ {
		f := sc.Keep(forkFormula(m, vars, 7*i))
		g := sc.Keep(forkFormula(m, vars, 7*i+3))
		want := sc.Keep(m.And(f, g))
		if got[i] != want {
			t.Fatalf("task %d after retries: node %d != serial node %d", i, got[i], want)
		}
	}
	for w := 0; w < s.Workers(); w++ {
		v := s.View(w)
		for n := range v.refs {
			delete(v.refs, n)
		}
	}
}
