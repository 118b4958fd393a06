package repro

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRepairSingleEntry drives the redesigned entry point through both
// algorithms and a multi-worker engine, and checks the result verifies.
func TestRepairSingleEntry(t *testing.T) {
	for _, alg := range []Algorithm{LazyAlg, CautiousAlg} {
		def, err := CaseStudy("sc", 4)
		if err != nil {
			t.Fatal(err)
		}
		c, res, err := Repair(context.Background(), def,
			WithAlgorithm(alg), WithEngine(EngineConfig{Workers: 2}))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		rep, err := Verify(context.Background(), c, res, WithEngine(EngineConfig{Workers: 2}))
		if err != nil {
			t.Fatalf("%v: verify: %v", alg, err)
		}
		if !rep.OK() {
			t.Fatalf("%v: verification failed:\n%s", alg, rep)
		}
	}
}

// TestAlgorithmString pins the algorithms' names: Algorithm is core's
// string type, so the constants are the names the CLI, the daemon and
// RunReport use.
func TestAlgorithmString(t *testing.T) {
	if LazyAlg != "lazy" || CautiousAlg != "cautious" {
		t.Fatalf("algorithm names: %q, %q", LazyAlg, CautiousAlg)
	}
}

func TestRepairTimeout(t *testing.T) {
	def, err := CaseStudy("ba", 6)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Repair(context.Background(), def, WithTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestVerifyOptionsAgree checks the redesigned Verify against itself across
// worker counts and manager tuning: same verdict, any options.
func TestVerifyOptionsAgree(t *testing.T) {
	def, _ := CaseStudy("sc", 4)
	c, res, err := Repair(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Verify(context.Background(), c, res, WithEngine(EngineConfig{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Verify(context.Background(), c, res, WithEngine(EngineConfig{Workers: 3, Reorder: 1 << 14}))
	if err != nil {
		t.Fatal(err)
	}
	if serial.OK() != parallel.OK() || !serial.OK() {
		t.Fatalf("verify verdicts disagree: serial %v, parallel %v", serial.OK(), parallel.OK())
	}
}

// TestVerifyBudgetError pins the run-boundary contract on the verification
// path: a node budget blown while checking must come back as a *BudgetError
// wrapped in an ordinary error, never as a panic escaping Verify, and the
// budget must bound only the call that set it — an unbounded Verify on the
// same compiled program afterwards passes.
func TestVerifyBudgetError(t *testing.T) {
	def, _ := CaseStudy("sc", 4)
	c, res, err := Repair(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Verify(context.Background(), c, res, WithEngine(EngineConfig{NodeBudget: 16}))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Live <= be.Budget || be.Budget != 16 {
		t.Fatalf("implausible BudgetError: %+v", be)
	}
	rep, err := Verify(context.Background(), c, res)
	if err != nil {
		t.Fatalf("unbounded Verify after a bounded one: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("verification failed:\n%s", rep)
	}
}

// TestRepairRejectsSharedMode pins the shared engine's removal on the library
// path: Options is repair.Options, so WithOptions can still carry Mode
// "shared". Repair must return the engine-mode error, neither running the
// partitioned engine in its place nor panicking.
func TestRepairRejectsSharedMode(t *testing.T) {
	def, err := CaseStudy("ba", 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Mode = "shared"
	opts.Workers = 2
	c, res, err := Repair(context.Background(), def, WithOptions(opts))
	if err == nil || !strings.Contains(err.Error(), `"shared"`) {
		t.Fatalf("Repair with Mode \"shared\" returned err = %v, want the engine-mode error", err)
	}
	if c != nil || res != nil {
		t.Fatal("Repair returned a result alongside the engine-mode error")
	}
}

// TestRepairWithCostModel drives the cost-carrying API end to end: a costed
// run must verify exactly like an uncosted one, report exact weighted counts,
// and achieve no more cost than the cost-blind synthesis under the same
// weights (measured here by re-pricing the uncosted result's transitions).
func TestRepairWithCostModel(t *testing.T) {
	def, err := CaseStudy("ba", 3)
	if err != nil {
		t.Fatal(err)
	}
	c, res, err := Repair(context.Background(), def, WithCostModel(CostModel{Default: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Costed || res.AchievedCost <= 0 {
		t.Fatalf("costed run reported Costed=%t AchievedCost=%g", res.Costed, res.AchievedCost)
	}
	rep, err := Verify(context.Background(), c, res)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("costed repair fails verification:\n%s", rep)
	}

	blindDef, _ := CaseStudy("ba", 3)
	bc, blind, err := Repair(context.Background(), blindDef)
	if err != nil {
		t.Fatal(err)
	}
	// Under unit weights the cost-blind achieved cost is its recovery
	// transition count; the minimizing run must not exceed it.
	blindCost := CountTransitions(bc, bc.Space.M.AndN(blind.Trans, bc.Space.M.Not(blind.Invariant), bc.Space.ValidTrans()))
	if res.AchievedCost > blindCost {
		t.Fatalf("cost-aware achieved %g > cost-blind %g", res.AchievedCost, blindCost)
	}
}

// TestCrossManagerPanics pins the misuse bug: handing a Node from one
// Compiled's manager to another must panic with a message naming the
// manager mismatch rather than silently counting the wrong function.
func TestCrossManagerPanics(t *testing.T) {
	bigDef, _ := CaseStudy("ba", 3)
	_, bigRes, err := Repair(context.Background(), bigDef)
	if err != nil {
		t.Fatal(err)
	}
	smallDef, _ := CaseStudy("sc", 3)
	small, _, err := Repair(context.Background(), smallDef)
	if err != nil {
		t.Fatal(err)
	}
	foreign := bigRes.Trans // index valid only in big's manager

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s accepted a foreign node", name)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "not from this manager") {
				t.Errorf("%s panicked with unhelpful message: %v", name, r)
			}
		}()
		f()
	}
	expectPanic("CountStates", func() { CountStates(small, foreign) })
	expectPanic("CountTransitions", func() { CountTransitions(small, foreign) })
	expectPanic("Intersects", func() { Intersects(small, foreign, bigRes.Invariant) })
}
