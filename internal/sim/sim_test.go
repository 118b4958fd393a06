package sim

import (
	"context"
	"testing"

	"repro/internal/casestudies"
	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
)

func TestRepairedBAIsCleanUnderSimulation(t *testing.T) {
	c := casestudies.BA(3).MustCompile()
	res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := New(c, res.Trans, res.Invariant)
	cfg := DefaultConfig()
	cfg.Runs = 150
	m, err := w.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BadStates != 0 || m.BadTransitions != 0 {
		t.Fatalf("repaired program violated safety in simulation: %s", m)
	}
	if m.FaultsInjected == 0 {
		t.Fatal("campaign injected no faults — vacuous")
	}
}

func TestOriginalBAViolatesUnderSimulation(t *testing.T) {
	// The fault-intolerant program finalizes unconditionally; with enough
	// adversarial runs a Byzantine general produces an agreement or
	// validity violation.
	c := casestudies.BA(3).MustCompile()
	// Start undecided: the interesting executions begin before anyone has
	// finalized.
	start := []expr.Expr{expr.Eq("b.g", 0)}
	for j := 0; j < 3; j++ {
		start = append(start,
			expr.Eq("b."+string(rune('0'+j)), 0),
			expr.Eq("d."+string(rune('0'+j)), casestudies.Bot),
			expr.Eq("f."+string(rune('0'+j)), 0))
	}
	startBDD, err := expr.And(start...).Compile(c.Space)
	if err != nil {
		t.Fatal(err)
	}
	w := New(c, c.Trans, c.Invariant).WithStart(startBDD)
	cfg := DefaultConfig()
	cfg.Runs = 400
	cfg.MaxFaults = 4
	cfg.FaultProb = 0.4
	m, err := w.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BadStates == 0 {
		t.Fatalf("expected the unrepaired program to reach bad states: %s", m)
	}
}

func TestRepairedChainRecovers(t *testing.T) {
	c := casestudies.SC(4).MustCompile()
	res, err := repair.LazyEngine(context.Background(), program.NewEngine(c, 0), repair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := New(c, res.Trans, res.Invariant)
	cfg := DefaultConfig()
	cfg.Runs = 100
	cfg.Steps = 80
	m, err := w.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BadTransitions != 0 {
		t.Fatalf("repaired chain took a bad transition: %s", m)
	}
	if m.Departures == 0 {
		t.Fatal("faults never left the invariant — vacuous")
	}
	if m.Recoveries == 0 {
		t.Fatalf("no recovery observed: %s", m)
	}
	if m.MaxRecoverySteps > 4*4 {
		t.Fatalf("recovery took too long: %s", m)
	}
}

func TestConfigValidation(t *testing.T) {
	c := casestudies.SC(3).MustCompile()
	w := New(c, c.Trans, c.Invariant)
	if _, err := w.Run(Config{}); err == nil {
		t.Fatal("zero config should error")
	}
}

func TestMetricsString(t *testing.T) {
	m := &Metrics{Runs: 1, Recoveries: 2, TotalRecoverySteps: 6}
	if m.MeanRecovery() != 3 {
		t.Fatalf("mean = %v", m.MeanRecovery())
	}
	if len(m.String()) == 0 {
		t.Fatal("empty rendering")
	}
}
