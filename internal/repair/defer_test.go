package repair_test

import (
	"context"
	"testing"

	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/symbolic"
	"repro/internal/verify"
)

// downUpModel has a recovery cycle that closes through a rank-decreasing
// edge. Faults take x from 0 to 1 or 2, and 2→0 is a bad transition, so the
// maximal Step-1 recovery is {1→0, 1→2, 2→1}. State 1 has rank 1 and state
// 2 rank 2, so only 1→2 fails to decrease the rank, and the cycle 1→2→1
// returns through the rank-decreasing edge 2→1.
func downUpModel() *program.Def {
	return &program.Def{
		Name: "down-up",
		Vars: []symbolic.VarSpec{{Name: "x", Domain: 3}},
		Processes: []*program.Process{{
			Name: "p", Read: []string{"x"}, Write: []string{"x"},
			Actions: []program.Action{
				{Name: "stay", Guard: expr.Eq("x", 0), Updates: []program.Update{program.Set("x", 0)}},
			},
		}},
		Faults: []program.Action{
			{Name: "hit", Guard: expr.Eq("x", 0), Updates: []program.Update{program.Choose("x", 1, 2)}},
		},
		Invariant: expr.Eq("x", 0),
		BadTrans:  expr.And(expr.Eq("x", 2), expr.NextEq("x", 0)),
	}
}

// Deferred cycle breaking must remove cycles that close through a
// rank-decreasing edge, not only cycles made of non-decreasing edges.
func TestDeferCycleBreakingClosesDownUpCycle(t *testing.T) {
	for _, deferCycles := range []bool{false, true} {
		c := downUpModel().MustCompile()
		opts := repair.DefaultOptions()
		opts.Workers = 1
		opts.DeferCycleBreaking = deferCycles
		res, err := repair.Lazy(context.Background(), c, opts)
		if err != nil {
			t.Fatalf("defer=%v: %v", deferCycles, err)
		}
		if rep := verify.Result(c, res); !rep.OK() {
			t.Fatalf("defer=%v: repaired program fails verification: %v", deferCycles, rep.Failures())
		}
	}
}
