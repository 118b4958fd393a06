package program_test

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/casestudies"
	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/symbolic"
)

// The certificate must prove the stabilizing chain's recovery acyclic: the
// Step-1 relation LayeredRecovery hands CyclicCore once the shrink fixpoint
// is stable, and the per-process parts the verifier builds from the Step-2
// output. The verifier's region is checked over Step 1's fault-span, which
// contains the certified span; a proof over the larger region covers the
// smaller one.
func TestCertificateProvesChainAcyclic(t *testing.T) {
	opts := repair.DefaultOptions()
	opts.Workers = 1
	for n := 3; n <= 8; n++ {
		c := casestudies.SC(n).MustCompile()
		s := c.Space
		m := s.M
		sc := m.Protect()
		mask, err := repair.AddMasking(context.Background(), c, c.Invariant, c.BadTrans, opts)
		if err != nil {
			t.Fatalf("sc(%d): %v", n, err)
		}
		_, mt := repair.ComputeMsMt(c, c.BadTrans)
		sc.Keep(mt)
		s1, t1 := mask.Invariant, mask.FaultSpan
		region := sc.Keep(m.Diff(t1, s1))
		outsideCtx := sc.Keep(m.AndN(t1, s.Prime(t1), m.Not(s1), m.Not(mt), m.Not(s.Identity()), s.ValidTrans()))
		recovery := make([]bdd.Node, len(c.Procs))
		for j, p := range c.Procs {
			recovery[j] = sc.Keep(m.And(p.WriteOK, outsideCtx))
		}
		if v := program.CertifyAcyclic(c, recovery, region); v != program.CertProved {
			t.Errorf("sc(%d) Step-1 recovery: verdict %d, want proved", n, v)
		}

		realized := repair.RealizeParts(c, mask.Trans, mask.FaultSpan)
		for _, p := range realized {
			sc.Keep(p)
		}
		trans := sc.Keep(m.And(m.OrN(realized...), s.ValidTrans()))
		procParts := make([]bdd.Node, len(c.Procs))
		for j, p := range c.Procs {
			procParts[j] = sc.Keep(p.MaxRealizableSubset(trans))
		}
		if v := program.CertifyAcyclic(c, procParts, region); v != program.CertProved {
			t.Errorf("sc(%d) verifier parts: verdict %d, want proved", n, v)
		}
		sc.Release()
	}
}

// Every Byzantine-agreement process reads every decision, so the dependency
// graph is cyclic and the certificate gives up before any BDD work.
func TestCertificateSkipsByzantine(t *testing.T) {
	c := casestudies.BA(3).MustCompile()
	m := c.Space.M
	parts := c.ProcParts(bdd.True)
	region := m.Diff(c.Space.ValidCur(), c.Invariant)
	before := m.Stats()
	if v := program.CertifyAcyclic(c, parts, region); v != program.CertCyclicGraph {
		t.Fatalf("ba(3): verdict %d, want cyclic graph", v)
	}
	if after := m.Stats(); after != before {
		t.Fatalf("ba(3): the certificate did BDD work: %+v -> %+v", before, after)
	}
}

// A DAG model whose downstream process cycles locally: the certificate must
// fall back on the cyclic projection, and CyclicCore must return the peel's
// non-empty core.
func TestCertificateFallsBackOnLocalCycle(t *testing.T) {
	d := &program.Def{
		Name: "local-cycle",
		Vars: []symbolic.VarSpec{{Name: "a", Domain: 2}, {Name: "b", Domain: 4}},
		Processes: []*program.Process{
			{Name: "p", Read: []string{"a"}, Write: []string{"a"}, Actions: []program.Action{
				{Name: "set", Guard: expr.Eq("a", 1), Updates: []program.Update{program.Set("a", 0)}},
			}},
			{Name: "q", Read: []string{"a", "b"}, Write: []string{"b"}, Actions: []program.Action{
				{Name: "up", Guard: expr.And(expr.Eq("a", 0), expr.Eq("b", 1)), Updates: []program.Update{program.Set("b", 2)}},
				{Name: "down", Guard: expr.Eq("b", 2), Updates: []program.Update{program.Set("b", 1)}},
			}},
		},
		Invariant: expr.Eq("b", 0),
	}
	c := d.MustCompile()
	s := c.Space
	sc := s.M.Protect()
	defer sc.Release()
	parts := c.ProcParts(bdd.True)
	region := sc.Keep(s.M.Diff(s.ValidCur(), c.Invariant))
	if v := program.CertifyAcyclic(c, parts, region); v != program.CertCyclicProjection {
		t.Fatalf("verdict %d, want cyclic projection", v)
	}
	got := sc.Keep(program.CyclicCore(c, parts, region))
	if want := program.CyclicCorePeel(c, parts, region); got != want {
		t.Fatalf("CyclicCore differs from the peel: %v vs %v states", s.CountStates(got), s.CountStates(want))
	}
	// q loops b=1 → b=2 → b=1 once p has set a=0; b=3 is stuck. The core is
	// the four states with b ∈ {1, 2} out of the region's six.
	if n := s.CountStates(got); n != 4 {
		t.Fatalf("cyclic core has %v states, want 4", n)
	}
}
