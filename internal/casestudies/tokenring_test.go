package casestudies

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/verify"
)

func TestTokenRingLazyVerified(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{3, 4}, {4, 5}} {
		d := TokenRing(tc.n, tc.k)
		c := d.MustCompile()
		res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, false)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s: verification failed:\n%s", d.Name, rep)
		}
		// Dijkstra's program is already stabilizing for k ≥ n: the whole
		// single-privilege invariant must survive.
		if !c.Space.M.Implies(c.Invariant, res.Invariant) {
			t.Fatalf("%s: repair shrank the single-privilege invariant", d.Name)
		}
	}
}

func TestTokenRingPreservesProtocol(t *testing.T) {
	d := TokenRing(3, 4)
	c := d.MustCompile()
	res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Space
	m := s.M
	// Every original transition from the repaired invariant that stays in
	// it must survive (the program was already correct there).
	inside := m.AndN(c.Trans, res.Invariant, s.Prime(res.Invariant))
	if !m.Implies(inside, res.Trans) {
		t.Fatal("repair dropped original in-invariant protocol moves")
	}
	// The token keeps circulating: from a legit state, the whole legit set
	// is reachable (the privilege makes a full round).
	start, _ := s.State(map[string]int{"fc": 0, "x.0": 0, "x.1": 0, "x.2": 0})
	reach := s.Reachable(start, res.Trans)
	// From all-equal (root privileged) the root advances and the token
	// travels: at least n distinct legit configurations must be reachable.
	legitReach := m.And(reach, res.Invariant)
	if got := s.CountStates(legitReach); got < 3 {
		t.Fatalf("token does not circulate: only %g legit states reachable", got)
	}
}

func TestTokenRingRecoversFromTwoPrivileges(t *testing.T) {
	d := TokenRing(3, 4)
	c := d.MustCompile()
	res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Space
	m := s.M
	// x = (0, 1, 2): privileges at p1 and p2 — an illegitimate state.
	twoPriv, _ := s.State(map[string]int{"fc": 0, "x.0": 0, "x.1": 1, "x.2": 2})
	if m.And(twoPriv, c.Invariant) != bdd.False {
		t.Fatal("test state should be illegitimate")
	}
	if m.And(twoPriv, res.FaultSpan) == bdd.False {
		t.Skip("state outside certified span")
	}
	reach := s.Reachable(twoPriv, res.Trans)
	if m.And(reach, res.Invariant) == bdd.False {
		t.Fatal("no recovery from the two-privilege state")
	}
}

func TestTokenRingValidation(t *testing.T) {
	for _, f := range []func(){
		func() { TokenRing(1, 4) },
		func() { TokenRing(3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid parameters")
				}
			}()
			f()
		}()
	}
}
