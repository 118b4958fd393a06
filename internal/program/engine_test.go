package program

// Tests for the engine's worker path: MapNodes, and Split through it, must
// return the same nodes on the owner and on the pool, the worker clones are
// compiled only by a fan-out above the gate and inherit the manager
// settings made before it, and a failed fan-out leaves the engine reusable
// with no goroutine left behind.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/expr"
	"repro/internal/symbolic"
)

// forcedPool returns a two-worker engine over c that sends every MapNodes
// call to the pool, however small its shared predicate.
func forcedPool(c *Compiled) *Engine {
	e := NewEngine(c, 2)
	e.fanoutMin = 1
	return e
}

// randomRel returns a random subset of c's valid transitions: the union of k
// random cubes, each fixing every BDD variable with probability 2/3.
func randomRel(r *rand.Rand, c *Compiled, k int) bdd.Node {
	m := c.Space.M
	sc := m.Protect()
	defer sc.Release()
	rel := sc.Slot(bdd.False)
	for i := 0; i < k; i++ {
		cube := bdd.True
		for v := 0; v < m.NumVars(); v++ {
			switch r.Intn(3) {
			case 0:
				cube = m.And(cube, m.Var(v))
			case 1:
				cube = m.And(cube, m.NVar(v))
			}
		}
		rel.Set(m.Or(rel.Node(), cube))
	}
	return m.And(rel.Node(), c.Space.ValidTrans())
}

// removeHarmful is cautious Phase 1's per-task shape: a shared harmful set
// and the process's own relation, from which every group touching the
// harmful set is removed.
func removeHarmful(c *Compiled, harmful, dj bdd.Node, j int) bdd.Node {
	m := c.Space.M
	bad := m.And(dj, harmful)
	if bad == bdd.False {
		return dj
	}
	return m.Diff(dj, c.Procs[j].Group(bad))
}

// fanOutBoth runs both fan-out shapes on e and returns the results, rooted
// in sc: Step 2's split of rel, then one harmful-group removal per process
// over harmful.
func fanOutBoth(t *testing.T, e *Engine, sc *bdd.Scope, rel, harmful bdd.Node) []bdd.Node {
	t.Helper()
	ctx := context.Background()
	procs, err := e.Split(ctx, rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range procs {
		sc.Keep(n)
	}
	inputs := make([]bdd.Node, len(e.C.Procs))
	for j, p := range e.C.Procs {
		inputs[j] = p.Trans
	}
	tasks, err := e.MapNodes(ctx, harmful, inputs, removeHarmful)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tasks {
		sc.Keep(n)
	}
	return append(procs, tasks...)
}

// TestMapNodesPoolMatchesOwnerProperty: on the fixpoint property test's
// random models, and on the certificate corpus whose processes read only
// part of the state, Split's part j on the owner is process j's maximal
// realizable subset, and a forced pool fan-out returns exactly the owner's
// nodes.
func TestMapNodesPoolMatchesOwnerProperty(t *testing.T) {
	const corpus = 40
	for seed := 0; seed < corpus; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		for _, d := range []*Def{genDef(r, seed), genCertDef(r, seed, seed%numShapes)} {
			c, err := d.Compile()
			if err != nil {
				continue // as in checkDef: not every random model compiles
			}
			m := c.Space.M
			sc := m.Protect()
			rel := sc.Keep(m.Or(randomRel(r, c, 8), c.Trans))
			harmful := sc.Keep(randomRel(r, c, 4))
			pool := forcedPool(c)
			want := fanOutBoth(t, SerialEngine(c), sc, rel, harmful)
			for j, p := range c.Procs {
				if mrs := p.MaxRealizableSubset(rel); want[j] != mrs {
					t.Fatalf("%s: Split's part %d is node %d, the process's maximal realizable subset node %d", d.Name, j, want[j], mrs)
				}
			}
			got := fanOutBoth(t, pool, sc, rel, harmful)
			if len(pool.workers) != 2 {
				t.Fatalf("%s: the forced fan-out built %d clones, want 2", d.Name, len(pool.workers))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: result %d: pool node %d, owner node %d", d.Name, i, got[i], want[i])
				}
			}
			sc.Release()
		}
	}
}

// wideDef is a model with n boolean variables, enough BDD variables for
// pairsOr to exceed the fan-out gate. p0 writes the first half of the
// variables, p1 reads and writes the second half.
func wideDef(n int) *Def {
	d := &Def{Name: fmt.Sprintf("wide-%d", n), Invariant: expr.True}
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("x%d", i))
		d.Vars = append(d.Vars, symbolic.VarSpec{Name: names[i], Domain: 2})
	}
	d.Processes = []*Process{
		{Name: "p0", Read: names, Write: names[:n/2], Actions: []Action{
			{Name: "set", Guard: expr.Eq(names[0], 0), Updates: []Update{Set(names[0], 1)}},
		}},
		{Name: "p1", Read: names[n/2:], Write: names[n/2:], Actions: []Action{
			{Name: "copy", Guard: expr.Eq(names[n-1], 1), Updates: []Update{Copy(names[n/2], names[n-1])}},
		}},
	}
	d.Faults = []Action{{Name: "reset", Guard: expr.True, Updates: []Update{Set(names[n-1], 0)}}}
	return d
}

// pairsOr returns OR over i < k of (v_{off+i} ∧ v_{off+k+i}) in m's current
// variable order: with every first member above every second one, about
// 2^(k+1) nodes.
func pairsOr(m *bdd.Manager, off, k int) bdd.Node {
	sc := m.Protect()
	defer sc.Release()
	f := sc.Slot(bdd.False)
	for i := 0; i < k; i++ {
		f.Set(m.Or(f.Node(), m.And(m.Var(off+i), m.Var(off+k+i))))
	}
	return f.Node()
}

// wide compiles wideDef(14) and builds, rooted in the returned scope, one
// predicate above the fan-out gate and one below it. It turns automatic
// reordering off on the owner: the gate reads a node count, and sifting
// under REPRO_REORDER_STRESS would shrink big below it.
func wide(t *testing.T) (c *Compiled, sc *bdd.Scope, big, small bdd.Node) {
	t.Helper()
	c = wideDef(14).MustCompile()
	m := c.Space.M
	m.SetReorderThreshold(0)
	sc = m.Protect()
	big = sc.Keep(pairsOr(m, 0, 12))
	small = sc.Keep(c.Trans)
	if n := m.NodeCount(big); n < fanoutMinShared {
		t.Fatalf("big predicate has %d nodes, below the gate's %d", n, fanoutMinShared)
	}
	if n := m.NodeCount(small); n >= fanoutMinShared {
		t.Fatalf("small predicate has %d nodes, not below the gate's %d", n, fanoutMinShared)
	}
	return c, sc, big, small
}

// TestEngineBuildsClonesOnlyAboveGate: a two-worker engine runs its
// fixpoints, and a fan-out below the gate, without compiling a clone; the
// first fan-out above the gate builds both, and the results match the
// serial engine's.
func TestEngineBuildsClonesOnlyAboveGate(t *testing.T) {
	c, sc, big, small := wide(t)
	defer sc.Release()
	ctx := context.Background()
	e := NewEngine(c, 2)
	parts := c.PartsWithFaults(bdd.True)
	if _, err := e.ReachableParts(ctx, c.Invariant, parts); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BackwardReachableParts(ctx, c.BadStates, parts); err != nil {
		t.Fatal(err)
	}
	below, err := e.Split(ctx, small)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range below {
		sc.Keep(n)
	}
	if e.workers != nil || e.pool != nil {
		t.Fatal("fixpoints and a fan-out below the gate built worker clones")
	}
	if e.Workers() != 2 {
		t.Fatalf("Workers() = %d before the clones exist, want the requested 2", e.Workers())
	}
	if r := e.FixpointStats().Rounds; r != 2 {
		t.Fatalf("FixpointStats().Rounds = %d after two fixpoints, want 2", r)
	}
	above, err := e.Split(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range above {
		sc.Keep(n)
	}
	if len(e.workers) != 2 || e.pool == nil {
		t.Fatalf("a fan-out above the gate built %d clones, want 2", len(e.workers))
	}
	serial := SerialEngine(c)
	for i, shared := range []bdd.Node{small, big} {
		want, err := serial.Split(ctx, shared)
		if err != nil {
			t.Fatal(err)
		}
		got := [][]bdd.Node{below, above}[i]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("shared predicate %d, process %d: two-worker node %d, serial node %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestLateClonesInheritSettings: settings made before the first fan-out
// reach the clones it builds. Each row reads the clones' own counters
// inside the task, so compilation under REPRO_GC_STRESS or
// REPRO_REORDER_STRESS does not count; "off" rows hold under either. The
// shared predicate is small, so the owner's table stays below the
// reordering gate and only the clones, whose tasks build ~2^13 nodes, pass
// it.
func TestLateClonesInheritSettings(t *testing.T) {
	rows := []struct {
		name        string
		gc, reorder int64
		check       func(d bdd.Stats) string
	}{
		{"collection and reordering off", 0, 0, func(d bdd.Stats) string {
			if d.GCRuns != 0 || d.ReorderRuns != 0 {
				return fmt.Sprintf("%d collections and %d reorders with both off", d.GCRuns, d.ReorderRuns)
			}
			return ""
		}},
		{"collection on", 64, 0, func(d bdd.Stats) string {
			if d.GCRuns == 0 || d.ReorderRuns != 0 {
				return fmt.Sprintf("%d collections and %d reorders with only collection on", d.GCRuns, d.ReorderRuns)
			}
			return ""
		}},
		{"reordering on", 0, 1, func(d bdd.Stats) string {
			if d.ReorderRuns == 0 {
				return "no reorder with reordering on"
			}
			return ""
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := wideDef(14).MustCompile()
			e := forcedPool(c)
			e.tune(func(m *bdd.Manager) { m.SetGCThreshold(row.gc) })
			e.SetReorderThreshold(row.reorder)
			if len(c.Procs) != e.Workers() {
				t.Fatalf("%d tasks on %d workers: the barrier below needs one task per worker", len(c.Procs), e.Workers())
			}
			// Each task waits for the other, so each runs on its own clone.
			// A clone that ran the other task first would find every node
			// of pairsOr still in its table and allocate nothing.
			var arrived sync.WaitGroup
			arrived.Add(len(c.Procs))
			deltas := make([]bdd.Stats, len(c.Procs))
			_, err := e.MapNodes(context.Background(), c.Trans, make([]bdd.Node, len(c.Procs)), func(wc *Compiled, _, _ bdd.Node, j int) bdd.Node {
				arrived.Done()
				arrived.Wait()
				wm := wc.Space.M
				before := wm.Stats()
				f := pairsOr(wm, 1, 12)
				after := wm.Stats()
				deltas[j] = bdd.Stats{GCRuns: after.GCRuns - before.GCRuns, ReorderRuns: after.ReorderRuns - before.ReorderRuns}
				return f
			})
			if err != nil {
				t.Fatal(err)
			}
			if e.workers == nil {
				t.Fatal("the fan-out ran on the owner")
			}
			for j, d := range deltas {
				if msg := row.check(d); msg != "" {
					t.Errorf("task %d: %s", j, msg)
				}
			}
		})
	}
}

// TestLateClonesFollowOwnerOrder: when the owner is reordered before the
// clones exist, the clones built later still return the serial results.
func TestLateClonesFollowOwnerOrder(t *testing.T) {
	c, sc, big, _ := wide(t)
	defer sc.Release()
	m := c.Space.M
	ctx := context.Background()
	want, err := SerialEngine(c).Split(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range want {
		sc.Keep(n)
	}
	order := m.Order()
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	m.SetOrder(order)
	e := NewEngine(c, 2)
	got, err := e.Split(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	if e.workers == nil {
		t.Fatal("the fan-out ran on the owner")
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("process %d: node %d after the owner's reorder, serial node %d", j, got[j], want[j])
		}
	}
}

// TestFailedFanoutLeavesEngineReusable: a fan-out whose worker blows the
// node budget, set before the clones existed, and one cancelled in flight
// both return their error; the engine then still returns the serial
// results, and no pool goroutine outlives the calls.
func TestFailedFanoutLeavesEngineReusable(t *testing.T) {
	base := runtime.NumGoroutine()
	c, sc, big, _ := wide(t)
	defer sc.Release()
	m := c.Space.M
	e := NewEngine(c, 2)
	// Placeholders: the two failing fan-outs run one task per process.
	tasks := make([]bdd.Node, len(c.Procs))

	// The budget leaves the owner, which holds everything a clone holds
	// before its task, a margin far below the ~2^14 nodes the task builds
	// (with sifting off, so that the task cannot shrink them).
	e.SetReorderThreshold(0)
	m.GC()
	e.SetNodeBudget(m.Stats().NodesLive + 1000)
	_, err := e.MapNodes(context.Background(), big, tasks, func(wc *Compiled, _, _ bdd.Node, _ int) bdd.Node {
		return pairsOr(wc.Space.M, 1, 13)
	})
	var be *bdd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("fan-out over budget returned %v, want *bdd.BudgetError", err)
	}
	e.SetNodeBudget(0)

	ctx, cancel := context.WithCancel(context.Background())
	_, err = e.MapNodes(ctx, big, tasks, func(wc *Compiled, sh, _ bdd.Node, j int) bdd.Node {
		cancel()
		return wc.Procs[j].MaxRealizableSubset(sh)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fan-out returned %v, want context.Canceled", err)
	}

	want, err := SerialEngine(c).Split(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range want {
		sc.Keep(n)
	}
	got, err := e.Split(context.Background(), big)
	if err != nil {
		t.Fatalf("fan-out after the failures: %v", err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("process %d: node %d after the failures, serial node %d", j, got[j], want[j])
		}
	}
	// Pool.Map waits for its goroutines, but one that has signalled the
	// WaitGroup may still be exiting; give it a bounded moment.
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after the fan-outs, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
