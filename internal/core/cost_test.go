package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/repair"
)

// TestMinimizeCostContract is the contract of cost-aware synthesis: under a
// unit cost model, serial lazy repair with verification reaches the same
// verdict with MinimizeCost off and on, and the minimizing arm never costs
// more. The achieved costs of both arms are pinned; sc and ring gain nothing
// because their recovery is anchored or empty.
func TestMinimizeCostContract(t *testing.T) {
	cases := []struct {
		name              string
		n                 int
		blind, minimizing float64 // achieved_cost with MinimizeCost off and on
	}{
		{"ba", 3, 48564, 6768},
		{"bafs", 2, 11888, 736},
		{"tmr", 0, 296, 40},
		{"sc", 4, 54000, 54000},
		{"ring", 3, 168, 168},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s%d", tc.name, tc.n), func(t *testing.T) {
			var arms [2]RunReport
			for i, minimize := range []bool{false, true} {
				def, err := CaseStudy(tc.name, tc.n)
				if err != nil {
					t.Fatal(err)
				}
				opts := repair.DefaultOptions()
				opts.Workers = 1
				opts.Costs = &repair.CostModel{Default: 1}
				opts.MinimizeCost = minimize
				job := Job{Def: def, Algorithm: LazyRepair, Options: opts, Verify: true}
				out, err := Run(context.Background(), job)
				if err != nil {
					t.Fatalf("minimize=%t: %v", minimize, err)
				}
				arms[i] = NewRunReport(job, out, tc.name, tc.n)
			}
			blind, minimizing := arms[0], arms[1]
			if blind.Verified == nil || minimizing.Verified == nil || *blind.Verified != *minimizing.Verified {
				t.Fatalf("verdicts differ between the arms: blind %v, minimizing %v", blind.Verified, minimizing.Verified)
			}
			if minimizing.AchievedCost > blind.AchievedCost {
				t.Errorf("minimizing arm achieved %g > cost-blind %g", minimizing.AchievedCost, blind.AchievedCost)
			}
			if blind.AchievedCost != tc.blind || minimizing.AchievedCost != tc.minimizing {
				t.Errorf("achieved cost %g -> %g, want %g -> %g", blind.AchievedCost, minimizing.AchievedCost, tc.blind, tc.minimizing)
			}
		})
	}
}
