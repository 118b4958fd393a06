// Package synchronous extends lazy repair to synchronous (barrier)
// semantics, the setting the paper's conclusion highlights: all processes
// read their readable variables, wait for a barrier, then update their
// written variables simultaneously, and repeat. Lazy repair carries over
// because Step 1 never looked at realizability; only the realizability
// notion — and hence Step 2 — changes. (The paper notes no cautious repair
// algorithm is known for synchronous semantics.)
//
// Realizability here means the global transition relation factors into
// per-process local relations: process j contributes a relation from its
// readable pre-state to its written variables' post-state, a process with no
// applicable row keeps its variables, and a global transition is exactly a
// simultaneous combination of one local choice per process (unowned
// variables never change). Step 2 therefore projects the Step-1 program onto
// each process's observation, recomposes the product, and removes local rows
// until the product is contained in the allowed behavior — removal only,
// exactly in the lazy spirit.
package synchronous

import (
	"context"
	"errors"
	"time"

	"repro/internal/bdd"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/symbolic"
)

// ErrNotRepairable mirrors repair.ErrNotRepairable for the synchronous case.
var ErrNotRepairable = errors.New("synchronous: cannot add fault-tolerance")

// ErrNoConvergence is returned when the outer loop exceeds its bound.
var ErrNoConvergence = errors.New("synchronous: repair loop did not converge")

// System is the synchronous view of a compiled program.
type System struct {
	C *program.Compiled

	// Owned is the conjunction "every variable written by no process is
	// unchanged" — the write universe of a synchronous step.
	Owned bdd.Node
	// Trans is the synchronous composition of the original program's
	// actions: every process simultaneously applies one enabled action or
	// keeps its variables.
	Trans bdd.Node

	// locals[j] is λ_j: process j's local relation over (full current
	// state, next values of W_j); the frame on other variables is removed.
	locals []bdd.Node
	// writeCubes[j] is the cube of process j's written next-state bits.
	writeCubes []bdd.Node
	// keep[j] is "process j's written variables unchanged".
	keep []bdd.Node
	// obsCube[j] is the cube of everything process j cannot observe in a
	// local row: unreadable current bits and all next bits outside W_j.
	obsCube []bdd.Node
}

// New builds the synchronous view of a compiled program.
func New(c *program.Compiled) *System {
	s := c.Space
	m := s.M
	sys := &System{C: c}
	// The System's relations live as long as the manager; root them
	// permanently (like a Compiled's fields).
	sc := m.Protect()
	defer sc.Release()

	owned := make(map[string]bool)
	for _, p := range c.Procs {
		for name := range p.Write {
			owned[name] = true
		}
	}
	sys.Owned = m.Ref(s.AndEach(func(v *symbolic.Var) bdd.Node {
		if owned[v.Name] {
			return bdd.True
		}
		return v.Unchanged()
	}))

	for _, p := range c.Procs {
		var writeLevels []int
		var frameCube []int
		for _, v := range s.Vars {
			if p.Write[v.Name] {
				writeLevels = append(writeLevels, v.NextLevels()...)
			} else {
				frameCube = append(frameCube, v.NextLevels()...)
			}
		}
		keepW := sc.Keep(s.AndEach(func(v *symbolic.Var) bdd.Node {
			if !p.Write[v.Name] {
				return bdd.True
			}
			return v.Unchanged()
		}))
		// λ_j: strip the "others unchanged" frame from the compiled δ_j by
		// projecting away every next bit outside W_j.
		lambda := sc.Keep(m.Exists(p.Trans, m.Cube(frameCube)))
		// A process with no enabled action keeps its variables.
		enabled := m.AndExists(p.Trans, s.ValidTrans(), s.NextCube())
		lambda = m.Or(lambda, m.And(m.Not(enabled), keepW))

		sys.locals = append(sys.locals, m.Ref(lambda))
		sys.writeCubes = append(sys.writeCubes, m.Ref(m.Cube(writeLevels)))
		sys.keep = append(sys.keep, m.Ref(keepW))

		var obs []int
		for _, v := range s.Vars {
			if !p.Read[v.Name] {
				obs = append(obs, v.CurLevels()...)
			}
			if !p.Write[v.Name] {
				obs = append(obs, v.NextLevels()...)
			}
		}
		sys.obsCube = append(sys.obsCube, m.Ref(m.Cube(obs)))
	}

	sys.Trans = m.Ref(sys.compose(sys.locals))
	return sys
}

// compose builds the global synchronous relation from local relations:
// the conjunction of all locals, with unowned variables unchanged.
func (sys *System) compose(locals []bdd.Node) bdd.Node {
	m := sys.C.Space.M
	out := m.NewRooted(m.And(sys.Owned, sys.C.Space.ValidTrans()))
	defer out.Release()
	for _, l := range locals {
		out.Set(m.And(out.Node(), l))
	}
	return out.Node()
}

// ProjectLocal extracts process j's local relation from a global transition
// set: the pairs (readable pre-state, W_j post-values) that occur in delta,
// closed over everything j cannot observe. This is the synchronous analog of
// the read-restriction group.
func (sys *System) ProjectLocal(j int, delta bdd.Node) bdd.Node {
	m := sys.C.Space.M
	return m.Exists(m.And(delta, sys.C.Space.ValidTrans()), sys.obsCube[j])
}

// Realizable reports whether delta is exactly a synchronous composition of
// its own per-process projections (the synchronous realizability check).
func (sys *System) Realizable(delta bdd.Node) bool {
	m := sys.C.Space.M
	sc := m.Protect()
	defer sc.Release()
	d := sc.Keep(m.AndN(delta, sys.C.Space.ValidTrans(), sys.Owned))
	if d != m.And(delta, sys.C.Space.ValidTrans()) {
		return false // changes an unowned variable
	}
	locals := make([]bdd.Node, len(sys.locals))
	for j := range sys.locals {
		locals[j] = sc.Keep(sys.ProjectLocal(j, d))
	}
	return sys.compose(locals) == d
}

// Result mirrors repair.Result for the synchronous pipeline.
type Result struct {
	Trans     bdd.Node
	Invariant bdd.Node
	FaultSpan bdd.Node
	Stats     repair.Stats
	// Locals holds the synthesized per-process local relations.
	Locals []bdd.Node
}

// Lazy runs lazy repair under synchronous semantics: Step 1 is Add-Masking
// on the synchronous composition (write universe = all owned variables may
// change at once); Step 2 projects the intermediate program onto the
// processes, recomposes, and removes local rows whose combinations create
// disallowed transitions; deadlocks feed back exactly as in Algorithm 1.
func Lazy(sys *System, opts repair.Options) (*Result, error) {
	c := sys.C
	s := c.Space
	m := s.M
	start := time.Now()
	var stats repair.Stats

	syncProg := &syncCompiled{sys: sys}
	stats.ReachableStates = s.CountStates(
		s.ReachableParts(c.Invariant, []bdd.Node{sys.Trans, c.Fault}))

	sc := m.Protect()
	defer sc.Release()
	invariantS := sc.Slot(c.Invariant)
	badTransS := sc.Slot(c.BadTrans)
	maxIter := opts.MaxOuterIterations
	if maxIter <= 0 {
		maxIter = 64
	}
	for iter := 1; iter <= maxIter; iter++ {
		stats.OuterIterations = iter
		t0 := time.Now()
		mask, err := syncProg.addMasking(invariantS.Node(), badTransS.Node(), opts)
		stats.Step1 += time.Since(t0)
		if err != nil {
			return nil, err
		}
		isc := m.Protect()
		isc.Keep(mask.Trans)
		isc.Keep(mask.Invariant)
		isc.Keep(mask.FaultSpan)

		t1 := time.Now()
		locals, realized := sys.realize(mask)
		for _, l := range locals {
			isc.Keep(l)
		}
		isc.Keep(realized)
		// Deadlock analysis: in synchronous semantics every state has the
		// all-stutter successor, so "deadlocked" means the only successor
		// is the state itself while it lies outside the invariant.
		certSpan := isc.Keep(s.ReachableParts(mask.Invariant, []bdd.Node{realized, c.Fault}))
		moving := m.AndExists(m.Diff(realized, s.Identity()), s.ValidTrans(), s.NextCube())
		dl := isc.Keep(m.AndN(certSpan, m.Not(moving), m.Not(mask.Invariant)))
		stats.Step2 += time.Since(t1)

		if dl == bdd.False {
			stats.Total = time.Since(start)
			stats.BDDNodes = m.Size()
			// The result's relations outlive this call's scopes; root them
			// for the life of the manager.
			res := &Result{
				Trans:     m.Ref(realized),
				Invariant: m.Ref(mask.Invariant),
				FaultSpan: m.Ref(certSpan),
				Stats:     stats,
				Locals:    locals,
			}
			for j := range res.Locals {
				m.Ref(res.Locals[j])
			}
			isc.Release()
			return res, nil
		}
		badTransS.Set(m.OrN(badTransS.Node(),
			m.And(s.Prime(dl), s.ValidTrans()),
			m.AndN(mask.FaultSpan, m.Not(s.Prime(mask.FaultSpan)), s.ValidTrans())))
		invariantS.Set(mask.Invariant)
		isc.Release()
	}
	return nil, ErrNoConvergence
}

// realize is the synchronous Step 2: project the Step-1 program (plus free
// transitions outside the span and the always-legal all-stutter) onto each
// process, recompose, and iteratively drop local rows that only arise in
// disallowed combinations.
func (sys *System) realize(mask *syncMasking) ([]bdd.Node, bdd.Node) {
	c := sys.C
	s := c.Space
	m := s.M

	sc := m.Protect()
	defer sc.Release()
	free := m.And(m.Not(mask.FaultSpan), s.ValidTrans())
	allowed := sc.Keep(m.OrN(m.And(mask.Trans, s.ValidTrans()), free, s.Identity()))

	locals := make([]bdd.Node, len(sys.locals))
	localSlots := make([]*bdd.Rooted, len(sys.locals))
	for j := range locals {
		localSlots[j] = sc.Slot(bdd.False)
		locals[j] = localSlots[j].Set(sys.ProjectLocal(j, allowed))
	}
	prodS := sc.Slot(bdd.False)
	for {
		prod := prodS.Set(sys.compose(locals))
		bad := m.Diff(prod, allowed)
		if bad == bdd.False {
			return locals, prod
		}
		sc.Keep(bad)
		// Remove the local rows that participate in disallowed
		// combinations, round-robin: drop from the first process whose
		// projection of the bad set is nonempty. (Removing from all at once
		// can erase rows other, allowed combinations still need.)
		removed := false
		for j := range locals {
			rows := m.And(sys.ProjectLocal(j, bad), locals[j])
			// Never remove a process's stutter rows: totality requires a
			// fallback choice for every observation.
			rows = m.Diff(rows, sys.keep[j])
			if rows == bdd.False {
				continue
			}
			locals[j] = localSlots[j].Set(m.Diff(locals[j], rows))
			removed = true
			break
		}
		if !removed {
			// Only stutter combinations remain disallowed; they are legal
			// by the Definition-18 analog, so intersect and finish.
			return locals, m.And(prod, allowed)
		}
	}
}

// syncCompiled adapts the synchronous composition to the Add-Masking
// skeleton: the write universe allows every owned variable to change at
// once, and recovery layering works on the single monolithic relation.
type syncCompiled struct {
	sys *System
}

type syncMasking struct {
	Trans     bdd.Node
	Invariant bdd.Node
	FaultSpan bdd.Node
}

func (sc *syncCompiled) addMasking(invariant, badTrans bdd.Node, opts repair.Options) (*syncMasking, error) {
	sys := sc.sys
	c := sys.C
	s := c.Space
	m := s.M

	psc := m.Protect()
	defer psc.Release()
	ms, mt, err := repair.ComputeMsMtEngine(context.TODO(), program.SerialEngine(c), badTrans)
	if err != nil {
		return nil, err
	}
	psc.Keep(ms)
	psc.Keep(mt)
	notMT := psc.Keep(m.Not(mt))

	s1S := psc.Slot(m.Diff(m.And(invariant, s.ValidCur()), ms))
	if s1S.Node() == bdd.False {
		return nil, ErrNotRepairable
	}
	universe := s.ValidCur()
	if opts.ReachabilityHeuristic {
		psc.Keep(invariant)
		universe = s.ReachableParts(invariant, []bdd.Node{m.And(sys.Trans, notMT), c.Fault})
	}
	t1S := psc.Slot(m.Diff(universe, ms))

	availInsideS := psc.Slot(bdd.False)
	availOutsideS := psc.Slot(bdd.False)
	recS := psc.Slot(bdd.False)
	t2S := psc.Slot(bdd.False)
	for {
		s1, t1 := s1S.Node(), t1S.Node()
		availInside := availInsideS.Set(m.AndN(sys.Trans, s1, s.Prime(s1), notMT))
		stay := m.AndN(sys.Owned, s.ValidTrans(), t1, s.Prime(t1))
		availOutside := availOutsideS.Set(m.AndN(stay, m.Not(s1), notMT, m.Not(s.Identity())))
		avail := m.Or(availInside, availOutside)

		t2S.Set(m.And(t1, s.BackwardReachableParts(s1, []bdd.Node{avail})))
		for {
			escape := s.Preimage(m.Diff(s.ValidCur(), t2S.Node()), c.Fault)
			next := m.Diff(t2S.Node(), escape)
			if next == t2S.Node() {
				break
			}
			t2S.Set(next)
		}
		t2 := t2S.Node()
		s2 := m.And(s1, t2)
		if s2 == bdd.False {
			return nil, ErrNotRepairable
		}
		if s2 != s1 || t2 != t1 {
			s1S.Set(s2)
			t1S.Set(t2)
			continue
		}
		rec, ranked := repair.LayeredRecovery(c, s1, t1, availOutside, []bdd.Node{availOutside})
		recS.Set(rec)
		if ranked != t1 {
			t1S.Set(ranked)
			continue
		}
		break
	}
	return &syncMasking{
		Trans:     m.Or(availInsideS.Node(), recS.Node()),
		Invariant: s1S.Node(),
		FaultSpan: t1S.Node(),
	}, nil
}
