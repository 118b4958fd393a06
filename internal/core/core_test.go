package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/program"
	"repro/internal/repair"
)

func TestRunLazyWithVerify(t *testing.T) {
	def, err := CaseStudy("sc", 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), Job{Def: def, Algorithm: LazyRepair, Options: repair.DefaultOptions(), Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Report == nil || !out.Report.OK() {
		t.Fatalf("verification missing or failed: %v", out.Report)
	}
	if out.CompileTime <= 0 {
		t.Fatal("compile time not recorded")
	}
	if out.Result.Stats.Total <= 0 {
		t.Fatal("repair time not recorded")
	}
}

func TestRunDefaultAlgorithmIsLazy(t *testing.T) {
	def, _ := CaseStudy("ba", 2)
	out, err := Run(context.Background(), Job{Def: def, Options: repair.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if out.Report != nil {
		t.Fatal("verify was not requested")
	}
}

func TestRunCautious(t *testing.T) {
	def, _ := CaseStudy("ba", 2)
	out, err := Run(context.Background(), Job{Def: def, Algorithm: CautiousRepair, Options: repair.DefaultOptions(), Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.OK() {
		t.Fatalf("cautious result failed verification:\n%s", out.Report)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	def, _ := CaseStudy("ba", 2)
	if _, err := Run(context.Background(), Job{Def: def, Algorithm: "magic"}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

// TestRunLiftsItsBudget checks that a node budget bounds only the Run that
// set it: once Run has returned, the compiled program's manager holds more
// live nodes than the budget without a *bdd.BudgetError.
func TestRunLiftsItsBudget(t *testing.T) {
	def, err := CaseStudy("sc", 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := repair.DefaultOptions()
	opts.NodeBudget = 1 << 13
	out, err := Run(context.Background(), Job{Def: def, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	rootPastBudget(t, out.Compiled.Space.M, opts.NodeBudget)
}

// TestAlgorithmsLeaveTheEngineUntuned checks that the repair algorithms
// leave an engine's tuning to the boundary that built it: run directly on
// an engine with Options.NodeBudget set, neither arms that budget on the
// caller's manager, which then holds more live nodes than the budget
// without a *bdd.BudgetError.
func TestAlgorithmsLeaveTheEngineUntuned(t *testing.T) {
	for _, alg := range []struct {
		name string
		run  func(context.Context, *program.Engine, repair.Options) (*repair.Result, error)
	}{
		{"lazy", repair.LazyEngine},
		{"cautious", repair.CautiousEngine},
	} {
		t.Run(alg.name, func(t *testing.T) {
			def, err := CaseStudy("sc", 4)
			if err != nil {
				t.Fatal(err)
			}
			c, err := def.Compile()
			if err != nil {
				t.Fatal(err)
			}
			opts := repair.DefaultOptions()
			opts.NodeBudget = 1 << 16
			if _, err := alg.run(context.Background(), program.SerialEngine(c), opts); err != nil {
				t.Fatal(err)
			}
			rootPastBudget(t, c.Space.M, opts.NodeBudget)
		})
	}
}

// rootPastBudget roots distinct minterms on m until its live nodes are twice
// budget, and fails t if a budget still armed on m panics. The collection
// cadence and sifting are switched off, so the stress variables do not make
// every And a collection; a budget still armed collects and panics all the
// same.
func rootPastBudget(t *testing.T, m *bdd.Manager, budget int64) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("a budget outlived its call: %v", r)
		}
	}()
	m.SetGCThreshold(0)
	m.SetReorderThreshold(0)
	for i := 0; m.Size() <= 2*int(budget); i++ {
		f := bdd.True
		for v := 0; v < m.NumVars(); v++ {
			if i>>v&1 != 0 {
				f = m.And(f, m.Var(v))
			} else {
				f = m.And(f, m.NVar(v))
			}
		}
		m.Ref(f)
	}
}

// TestRunPhases pins the phase sequence Run reports through the one
// progress hook, Options.Phasef: its own compile, witness and verify phases
// around the repair algorithm's steps, with thinning after Step 2 on a run
// that minimizes cost.
func TestRunPhases(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		alg    Algorithm
		costed bool
		want   string
	}{
		{"ba", 3, LazyRepair, false, "compile step1 step2 witness verify"},
		{"bafs", 2, LazyRepair, true, "compile step1 step2 thin witness verify"},
		{"sc", 3, CautiousRepair, false, "compile step1 witness verify"},
	} {
		def, err := CaseStudy(tc.name, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		opts := repair.DefaultOptions()
		if tc.costed {
			opts.Costs = &repair.CostModel{Default: 1}
			opts.MinimizeCost = true
		}
		var got []string
		opts.Phasef = func(phase string) { got = append(got, phase) }
		out, err := Run(context.Background(), Job{Def: def, Algorithm: tc.alg, Options: opts, Verify: true, Witnesses: 2})
		if err != nil {
			t.Fatalf("%s(%d) %s: %v", tc.name, tc.n, tc.alg, err)
		}
		if !out.Report.OK() {
			t.Fatalf("%s(%d) %s failed verification:\n%s", tc.name, tc.n, tc.alg, out.Report)
		}
		if s := strings.Join(got, " "); s != tc.want {
			t.Errorf("%s(%d) %s phases = %q, want %q", tc.name, tc.n, tc.alg, s, tc.want)
		}
	}
}

func TestCaseStudyValidation(t *testing.T) {
	cases := []struct {
		name string
		n    int
		ok   bool
	}{
		{"ba", 3, true},
		{"bafs", 2, true},
		{"sc", 4, true},
		{"ba", 0, false},
		{"bafs", 0, false},
		{"sc", 1, false},
		{"ring", 3, true},
		{"ring", 1, false},
		{"tmr", 0, true},
		{"xx", 3, false},
	}
	for _, tc := range cases {
		_, err := CaseStudy(tc.name, tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("CaseStudy(%q, %d): err=%v, want ok=%v", tc.name, tc.n, err, tc.ok)
		}
	}
	if len(CaseStudyNames()) != 5 {
		t.Error("expected five case studies")
	}
}
