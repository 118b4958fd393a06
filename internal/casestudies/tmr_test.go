package casestudies

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/verify"
)

func TestTMRLazyVerified(t *testing.T) {
	c := TMR().MustCompile()
	res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verification failed:\n%s", rep)
	}
	s := c.Space
	m := s.M

	// The repaired voter publishes the majority when replica 0 is the
	// corrupted one: from (in = 1,0,0, out = ⊥), publishing 1 (copying the
	// corrupt replica, as the original program did) must be gone, and a
	// path to a finalized majority output 0 must exist.
	start, _ := s.State(map[string]int{
		"in.0": 1, "in.1": 0, "in.2": 0, "out": Bot, "done": 0, "hit": 1})
	if m.And(start, res.FaultSpan) == bdd.False {
		t.Skip("corrupted-publish state outside span")
	}
	badPublish, _ := s.Transition(
		map[string]int{"in.0": 1, "in.1": 0, "in.2": 0, "out": Bot, "done": 0, "hit": 1},
		map[string]int{"in.0": 1, "in.1": 0, "in.2": 0, "out": 1, "done": 0, "hit": 1})
	if m.Implies(badPublish, res.Trans) {
		t.Fatal("repair kept the corrupt copy-from-replica-0 publish")
	}
	reach := s.Reachable(start, res.Trans)
	goal, _ := s.State(map[string]int{
		"in.0": 1, "in.1": 0, "in.2": 0, "out": 0, "done": 1, "hit": 1})
	if m.And(reach, goal) == bdd.False {
		t.Fatal("repaired voter cannot finalize the majority value")
	}
}

func TestTMRCautiousVerified(t *testing.T) {
	c := TMR().MustCompile()
	res, err := repair.CautiousEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verification failed:\n%s", rep)
	}
}

func TestTMROriginalViolates(t *testing.T) {
	// Sanity: the fault-intolerant voter can reach a bad state (publishing
	// and finalizing the corrupted replica's value).
	c := TMR().MustCompile()
	s := c.Space
	m := s.M
	reach := s.ReachableParts(c.Invariant, c.PartsWithFaults(bdd.True))
	if m.And(reach, c.BadStates) == bdd.False {
		t.Fatal("original TMR should be able to violate safety — model too weak")
	}
}
