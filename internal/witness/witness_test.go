package witness_test

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/sim"
	"repro/internal/symbolic"
	"repro/internal/verify"
	"repro/internal/witness"
)

// caseInstances are small instances of every built-in case study. tolerant
// marks programs that are already fault-tolerant as submitted (Dijkstra's
// ring, by his theorem): their original version verifies, so there is no
// failure to witness — only recovery to demonstrate.
var caseInstances = []struct {
	name     string
	n        int
	tolerant bool
}{
	{"ba", 2, false},
	{"bafs", 2, false},
	{"sc", 4, false},
	{"ring", 2, true},
	{"tmr", 0, false},
}

func compileCase(t *testing.T, name string, n int) *program.Compiled {
	t.Helper()
	def, err := core.CaseStudy(name, n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := def.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOriginalProgramFailuresHaveCertifiedWitnesses is the failure half of
// the witness acceptance criterion: verifying the original (fault-intolerant)
// program of every case study must fail, and at least one failed check must
// carry a witness that the independent explicit checker confirms.
func TestOriginalProgramFailuresHaveCertifiedWitnesses(t *testing.T) {
	for _, tc := range caseInstances {
		t.Run(tc.name, func(t *testing.T) {
			c := compileCase(t, tc.name, tc.n)
			// The original program "as submitted": its own transitions and
			// invariant, with the whole state space as the claimed span (the
			// original program certifies no fault-span of its own).
			res := &repair.Result{Trans: c.Trans, Invariant: c.Invariant, FaultSpan: c.Space.ValidCur()}
			rep, err := verify.Result(context.Background(), program.SerialEngine(c), res, true)
			if err != nil {
				t.Fatal(err)
			}
			if tc.tolerant {
				if !rep.OK() {
					t.Fatalf("already-tolerant %s program fails verification: %v", tc.name, rep.Failures())
				}
				for _, chk := range rep.Checks {
					if chk.Witness != nil {
						t.Errorf("passing check %q carries a witness", chk.Name)
					}
				}
				return
			}
			if rep.OK() {
				t.Fatalf("original %s program unexpectedly verifies:\n%s", tc.name, rep)
			}
			certified := 0
			for _, chk := range rep.Checks {
				if chk.Witness == nil {
					continue
				}
				if chk.OK {
					t.Errorf("check %q passed but carries a witness", chk.Name)
				}
				if chk.Witness.Check != chk.Name {
					t.Errorf("witness on %q names check %q", chk.Name, chk.Witness.Check)
				}
				if err := witness.Certify(c, c.Trans, c.Invariant, chk.Witness); err != nil {
					t.Errorf("witness for %q fails certification: %v\n%s", chk.Name, err, chk.Witness)
					continue
				}
				certified++
			}
			if certified == 0 {
				t.Fatalf("no certified witness on any failed check (failures: %v)", rep.Failures())
			}
		})
	}
}

// TestRecoveryDemosCertifiedAndReplayable is the success half: repairing every
// case study must yield recovery demonstrations that certify and that the
// simulator replays — with every departure from the invariant followed by
// re-entry, and no safety violation along the way.
func TestRecoveryDemosCertifiedAndReplayable(t *testing.T) {
	for _, tc := range caseInstances {
		t.Run(tc.name, func(t *testing.T) {
			c := compileCase(t, tc.name, tc.n)
			res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			demos, err := witness.RecoveryDemos(context.Background(), c, res.Trans, res.Invariant, res.FaultSpan, 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(demos) == 0 {
				t.Fatal("repair succeeded but produced no recovery demonstration")
			}
			walker := sim.New(c, res.Trans, res.Invariant)
			for i, tr := range demos {
				if tr.Kind != witness.KindRecovery {
					t.Fatalf("demo %d has kind %q", i, tr.Kind)
				}
				if tr.Faults() == 0 {
					t.Errorf("demo %d takes no fault step:\n%s", i, tr)
				}
				// A stutter demonstrates nothing; a fault masked in place
				// is shown by a step that moves.
				if maps.Equal(tr.Steps[0].State, tr.Steps[1].State) {
					t.Errorf("demo %d opens with a fault step that changes no variable:\n%s", i, tr)
				}
				if err := witness.Certify(c, res.Trans, res.Invariant, tr); err != nil {
					t.Errorf("demo %d fails certification: %v\n%s", i, err, tr)
					continue
				}
				r, err := walker.Replay(tr)
				if err != nil {
					t.Errorf("demo %d does not replay: %v\n%s", i, err, tr)
					continue
				}
				if r.Departed && !r.Reentered {
					t.Errorf("demo %d departs the invariant without re-entering:\n%s", i, tr)
				}
				if r.BadStates != 0 || r.BadTransitions != 0 {
					t.Errorf("demo %d violates safety (%d bad states, %d bad transitions)", i, r.BadStates, r.BadTransitions)
				}
				if r.Faults == 0 {
					t.Errorf("demo %d replayed no fault step", i)
				}
			}
		})
	}
}

// TestCertifyRejectsTamperedTraces: a certificate is only as good as its
// checker's skepticism. Tampering with any part of a valid demonstration must
// be detected.
func TestCertifyRejectsTamperedTraces(t *testing.T) {
	c := compileCase(t, "sc", 4)
	res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	demos, err := witness.RecoveryDemos(context.Background(), c, res.Trans, res.Invariant, res.FaultSpan, 1)
	if err != nil || len(demos) == 0 {
		t.Fatalf("no demo to tamper with (err=%v)", err)
	}
	orig, _ := json.Marshal(demos[0])

	reload := func() *witness.Trace {
		var tr witness.Trace
		if err := json.Unmarshal(orig, &tr); err != nil {
			t.Fatal(err)
		}
		return &tr
	}

	// Baseline sanity: the untampered trace certifies.
	if err := witness.Certify(c, res.Trans, res.Invariant, reload()); err != nil {
		t.Fatalf("untampered demo rejected: %v", err)
	}

	// Corrupt a mid-trace state value.
	tr := reload()
	mid := len(tr.Steps) / 2
	for name, v := range tr.Steps[mid].State {
		tr.Steps[mid].State[name] = v ^ 1
		break
	}
	if err := witness.Certify(c, res.Trans, res.Invariant, tr); err == nil {
		t.Error("corrupted state accepted")
	}

	// Relabel a fault step as a program step.
	tr = reload()
	relabelled := false
	for i := range tr.Steps {
		if tr.Steps[i].Kind == witness.StepFault {
			tr.Steps[i].Kind = witness.StepProgram
			relabelled = true
			break
		}
	}
	if !relabelled {
		t.Fatal("demo has no fault step to relabel")
	}
	if err := witness.Certify(c, res.Trans, res.Invariant, tr); err == nil {
		t.Error("fault step relabelled as program step accepted")
	}

	// Truncate the recovery: the trace must end inside the invariant.
	tr = reload()
	if len(tr.Steps) > 2 {
		tr.Steps = tr.Steps[:2] // init + fault, before convergence
		if err := witness.Certify(c, res.Trans, res.Invariant, tr); err == nil {
			t.Error("truncated recovery accepted")
		}
	}

	// Claim an impossible kind.
	tr = reload()
	tr.Kind = witness.KindDeadlock
	if err := witness.Certify(c, res.Trans, res.Invariant, tr); err == nil {
		t.Error("recovery trace accepted as a deadlock witness")
	}
}

// TestExtractionHonorsCancellation: a cancelled context must abort witness
// extraction rather than letting a long reconstruction blow a job deadline.
func TestExtractionHonorsCancellation(t *testing.T) {
	c := compileCase(t, "sc", 4)
	res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := witness.RecoveryDemos(ctx, c, res.Trans, res.Invariant, res.FaultSpan, 4); err == nil {
		t.Error("cancelled extraction returned no error")
	}
	x := witness.New(c)
	if _, err := x.BadState(ctx, c.Trans, c.Invariant); err == nil {
		t.Error("cancelled bad-state extraction returned no error")
	}
	if _, err := x.BadTransition(ctx, c.Trans, c.Invariant); err == nil {
		t.Error("cancelled bad-transition extraction returned no error")
	}
}

// TestTraceJSONGolden pins the witness JSON encoding: the wire shape is part
// of the service API (RunReport embeds traces) and of the determinism
// contract, so changes must be deliberate.
func TestTraceJSONGolden(t *testing.T) {
	tr := &witness.Trace{
		Kind:   witness.KindRecovery,
		Check:  "",
		Detail: "leaves the invariant via 1 fault(s) and recovers in 1 program step(s)",
		Steps: []witness.Step{
			{Kind: witness.StepInit, State: map[string]int{"x": 0, "y": 1}},
			{Kind: witness.StepFault, By: "hit", State: map[string]int{"x": 1, "y": 1}},
			{Kind: witness.StepProgram, By: "p", State: map[string]int{"x": 0, "y": 1}},
		},
	}
	got, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "trace_golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate by writing the 'got' bytes)", golden, err)
	}
	if string(got) != string(want) {
		t.Errorf("trace JSON drifted from golden file:\n got: %s\nwant: %s", got, want)
	}

	// The encoding round-trips.
	var back witness.Trace
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != tr.Kind || len(back.Steps) != len(tr.Steps) || back.Steps[1].By != "hit" {
		t.Errorf("round-trip lost data: %+v", back)
	}
}

// TestUnrealizableWitness crafts a relation with an incomplete
// read-restriction group — a single transition whose hidden-variable twin is
// absent — and checks the extracted witness names the betrayed process and
// the missing member, and that the certificate checker accepts it.
func TestUnrealizableWitness(t *testing.T) {
	d := &program.Def{
		Name: "hidden",
		Vars: []symbolic.VarSpec{{Name: "a", Domain: 2}, {Name: "y", Domain: 2}},
		Processes: []*program.Process{
			{Name: "p", Read: []string{"y"}, Write: []string{"y"}},
		},
		Faults: []program.Action{{
			Name:    "hit",
			Guard:   expr.And(expr.Eq("a", 0), expr.Eq("y", 0)),
			Updates: []program.Update{program.Set("y", 1)},
		}},
		Invariant: expr.Eq("y", 0),
	}
	c := d.MustCompile()
	s := c.Space

	// One transition flipping y with a=0; the group member with a=1 (which p
	// cannot observe) is absent, so no process realizes the relation.
	only, err := s.Transition(map[string]int{"a": 0, "y": 0}, map[string]int{"a": 0, "y": 1})
	if err != nil {
		t.Fatal(err)
	}
	x := witness.New(c)
	tr, err := x.Unrealizable(context.Background(), only)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("incomplete group not detected")
	}
	if tr.Kind != witness.KindUnrealizable || tr.Process != "p" || tr.Move == nil || tr.Member == nil {
		t.Fatalf("unexpected witness: %+v", tr)
	}
	if tr.Member.From["a"] != 1 || tr.Member.To["a"] != 1 {
		t.Errorf("missing member should differ in the hidden variable: %+v", tr.Member)
	}
	if err := witness.Certify(c, only, c.Invariant, tr); err != nil {
		t.Errorf("genuine unrealizability witness rejected: %v", err)
	}

	// A fabricated member that IS in the relation must be rejected.
	forged := *tr
	forged.Member = tr.Move
	if err := witness.Certify(c, only, c.Invariant, &forged); err == nil {
		t.Error("forged member (present in the relation) accepted")
	}

	// A realizable relation yields no witness: the transition plus its twin.
	twin, err := s.Transition(map[string]int{"a": 1, "y": 0}, map[string]int{"a": 1, "y": 1})
	if err != nil {
		t.Fatal(err)
	}
	full := s.M.Or(only, twin)
	tr, err = x.Unrealizable(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		t.Errorf("complete group reported unrealizable:\n%s", tr)
	}
}
