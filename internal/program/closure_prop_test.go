package program

// Property tests for the closed-form Step-2 closure and the union-relation
// peel. Each production form is pinned node for node to the earlier
// implementation it replaced, kept here as a reference: MaxRealizableSubset
// against the closure through the Group operator, cyclicCorePeel against the
// relation built part by part. Canonicity makes node equality set equality.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bdd"
)

// maxRealizableSubsetGroup is MaxRealizableSubset through the Group
// operator: the candidate minus the group closure of every write-legal
// transition missing from it.
func maxRealizableSubsetGroup(p *CompiledProc, delta bdd.Node) bdd.Node {
	m := p.space.M
	candidate := m.AndN(delta, p.WriteOK, p.space.ValidTrans())
	missing := m.And(m.Not(candidate), m.AndN(p.SameUnread, p.WriteOK, p.space.ValidTrans()))
	return m.Diff(candidate, p.Group(missing))
}

// cyclicCorePeelPerPart is cyclicCorePeel with its relation built part by
// part: the union of every part restricted to region × region.
func cyclicCorePeelPerPart(c *Compiled, parts []bdd.Node, region bdd.Node) bdd.Node {
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(region)
	for _, p := range parts {
		sc.Keep(p)
	}
	rel := sc.Slot(bdd.False)
	inside := sc.Keep(m.And(region, s.Prime(region)))
	for _, p := range parts {
		rel.Set(m.Or(rel.Node(), m.And(p, inside)))
	}
	z := sc.Slot(region)
	for {
		next := m.And(z.Node(), m.AndExists(rel.Node(), s.Prime(z.Node()), s.NextCube()))
		if next == z.Node() {
			return z.Node()
		}
		z.Set(next)
	}
}

// restrictDef gives every process of d random read and write sets (W ⊆ R,
// at least one variable written) and keeps the actions those sets allow.
// genDef's processes read and write every variable, so every transition is
// write-legal and every group a single transition; restricted, its models
// exercise the closure.
func restrictDef(r *rand.Rand, d *Def) *Def {
	out := cloneDef(d)
	for i, p := range out.Processes {
		var read, write []string
		for _, v := range d.Vars {
			switch r.Intn(3) {
			case 0:
				read = append(read, v.Name)
				write = append(write, v.Name)
			case 1:
				read = append(read, v.Name)
			}
		}
		if len(write) == 0 {
			w := d.Vars[r.Intn(len(d.Vars))].Name
			write = append(write, w)
			if !slices.Contains(read, w) {
				read = append(read, w)
			}
		}
		np := &Process{Name: p.Name, Read: read, Write: write}
		for _, a := range p.Actions {
			if actionFits(a, read, write) {
				np.Actions = append(np.Actions, a)
			}
		}
		out.Processes[i] = np
	}
	return out
}

// actionFits reports whether a process with the given read and write sets
// may declare a: its guard and copy sources readable, its targets writable.
func actionFits(a Action, read, write []string) bool {
	if a.Guard != nil {
		for _, v := range a.Guard.Vars(nil) {
			if !slices.Contains(read, v) {
				return false
			}
		}
	}
	for _, u := range a.Updates {
		if !slices.Contains(write, u.Var) || (u.Kind == CopyVar && !slices.Contains(read, u.From)) {
			return false
		}
	}
	return true
}

// closureTally counts the non-trivial comparisons of checkMaxRealizable.
type closureTally struct {
	outside int // delta not inside the process's WriteOK
	kept    int // the result is not empty
	trimmed int // the result drops some write-legal transition of delta
}

// checkMaxRealizable compares MaxRealizableSubset with the Group-based
// reference for every process of c, on random deltas inside and outside
// WriteOK, on complete groups with and without holes, on the program's
// relation plus Step 2's free transitions outside a random span, on the
// extra deltas, and on the constants.
func checkMaxRealizable(t *testing.T, c *Compiled, r *rand.Rand, tally *closureTally, extra ...bdd.Node) {
	t.Helper()
	s := c.Space
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	for _, d := range extra {
		sc.Keep(d)
	}
	span := sc.Keep(m.Exists(randomRel(r, c, 3), s.NextCube()))
	free := sc.Keep(m.And(m.Not(span), s.ValidTrans()))
	for _, p := range c.Procs {
		groups := sc.Keep(p.Group(randomRel(r, c, 3)))
		// Each delta is rooted as it is built: randomRel runs enough
		// operations to push an unrooted sibling out of the recent ring.
		deltas := append([]bdd.Node{
			sc.Keep(randomRel(r, c, 6)),
			sc.Keep(m.And(randomRel(r, c, 6), p.WriteOK)),
			sc.Keep(m.Or(groups, randomRel(r, c, 3))),
			sc.Keep(m.Diff(groups, randomRel(r, c, 3))),
			sc.Keep(m.Or(c.Trans, free)),
			sc.Keep(m.Or(groups, free)),
			bdd.True,
			bdd.False,
		}, extra...)
		for i, delta := range deltas {
			want := sc.Keep(maxRealizableSubsetGroup(p, delta))
			got := p.MaxRealizableSubset(delta)
			if got != want {
				t.Fatalf("%s/%s delta %d: closed form %v transitions, Group reference %v",
					c.Def.Name, p.Name, i, s.CountTransitions(got), s.CountTransitions(want))
			}
			if !m.Implies(delta, p.WriteOK) {
				tally.outside++
			}
			if want != bdd.False {
				tally.kept++
			}
			if want != m.AndN(delta, p.WriteOK, s.ValidTrans()) {
				tally.trimmed++
			}
		}
	}
}

// requireTally fails the test when some kind of comparison never happened.
func requireTally(t *testing.T, tally closureTally) {
	t.Helper()
	t.Logf("deltas outside WriteOK %d, non-empty results %d, trimmed results %d",
		tally.outside, tally.kept, tally.trimmed)
	if tally.outside == 0 || tally.kept == 0 || tally.trimmed == 0 {
		t.Fatal("the corpus left a kind of comparison untested")
	}
}

// TestMaxRealizableSubsetMatchesGroupReference: on random models whose
// processes read and write part of the state, the closed form returns the
// Group-based reference's node.
func TestMaxRealizableSubsetMatchesGroupReference(t *testing.T) {
	const corpus = 40
	var tally closureTally
	for seed := 0; seed < corpus; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		for _, d := range []*Def{restrictDef(r, genDef(r, seed)), genCertDef(r, seed, seed%numShapes)} {
			c, err := d.Compile()
			if err != nil {
				continue // as in checkDef: not every random model compiles
			}
			checkMaxRealizable(t, c, r, &tally)
		}
	}
	requireTally(t, tally)
}

// TestCyclicCorePeelMatchesPerPart: on the same corpus, the peel over the
// union relation returns the per-part reference's core for the processes'
// relations, for random relations per process, and for random regions.
func TestCyclicCorePeelMatchesPerPart(t *testing.T) {
	const corpus = 40
	cyclic := 0
	for seed := 0; seed < corpus; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		for _, d := range []*Def{restrictDef(r, genDef(r, seed)), genCertDef(r, seed, seed%numShapes)} {
			c, err := d.Compile()
			if err != nil {
				continue
			}
			cyclic += checkPeel(t, c, r, bdd.False)
		}
	}
	t.Logf("non-empty cores: %d", cyclic)
	if cyclic == 0 {
		t.Fatal("no comparison had a non-empty core")
	}
}

// checkPeel compares cyclicCorePeel with the per-part reference on c for
// three partition lists plus the extra lists, each over the whole space, a
// random region and the given region (skipped when False). It returns how
// many comparisons had a non-empty core.
func checkPeel(t *testing.T, c *Compiled, r *rand.Rand, region bdd.Node, extra ...[]bdd.Node) int {
	t.Helper()
	s := c.Space
	m := s.M
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(region)
	trans := make([]bdd.Node, len(c.Procs))
	withFault := make([]bdd.Node, len(c.Procs))
	random := make([]bdd.Node, len(c.Procs))
	for j, p := range c.Procs {
		trans[j] = p.Trans
		withFault[j] = sc.Keep(m.Or(p.Trans, c.Fault))
		random[j] = sc.Keep(m.And(randomRel(r, c, 8), p.WriteOK))
	}
	for _, parts := range extra {
		for _, p := range parts {
			sc.Keep(p)
		}
	}
	cyclic := 0
	for k, parts := range append([][]bdd.Node{trans, withFault, random}, extra...) {
		regions := []bdd.Node{s.ValidCur(), sc.Keep(m.Exists(randomRel(r, c, 4), s.NextCube()))}
		if region != bdd.False {
			regions = append(regions, region)
		}
		for _, region := range regions {
			region = sc.Keep(m.And(region, s.ValidCur()))
			want := sc.Keep(cyclicCorePeelPerPart(c, parts, region))
			if got := cyclicCorePeel(c, parts, region); got != want {
				t.Fatalf("%s parts %d: union peel %v states, per-part reference %v",
					c.Def.Name, k, s.CountStates(got), s.CountStates(want))
			}
			if want != bdd.False {
				cyclic++
			}
		}
	}
	return cyclic
}
