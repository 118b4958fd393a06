package core

import (
	"context"
	"os"
	"testing"

	"repro/internal/repair"
)

// TestRunAllocations pins how many BDD nodes a serial lazy repair plus
// verification allocates. Below the collector's 2^21-allocation cadence
// nothing is reclaimed inside a job, so every node a layer builds and drops
// stays in the table until the job ends. The fused products (∃(f∧¬g) in the
// group closure, images and preimages without a renamed copy, the cyclic
// core without region ∧ region′) brought sc(14) from 106,963 nodes to
// 81,209 and ba(14) with 4 witnesses from 683,037 to 568,707; the group
// closure without its candidate relation, the rank layers and closure tests
// as one f ∧ g ∧ ¬h product each, to 80,674 and 452,448.
func TestRunAllocations(t *testing.T) {
	if os.Getenv("REPRO_GC_STRESS") != "" || os.Getenv("REPRO_REORDER_STRESS") != "" {
		t.Skip("collections and sifting passes re-create nodes, so the count is not the run's own")
	}
	for _, tc := range []struct {
		name         string
		n, witnesses int
		max          int64
	}{
		{"sc", 14, 0, 95_000},
		{"ba", 14, 4, 500_000},
	} {
		def, err := CaseStudy(tc.name, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		opts := repair.DefaultOptions()
		opts.Workers = 1
		out, err := Run(context.Background(), Job{Def: def, Options: opts, Verify: true, Witnesses: tc.witnesses})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Report.OK() {
			t.Fatalf("%s(%d) does not verify:\n%s", tc.name, tc.n, out.Report)
		}
		got := out.Compiled.Space.M.Stats().NodesAllocated
		t.Logf("%s(%d), %d witness(es): %d nodes allocated", tc.name, tc.n, tc.witnesses, got)
		if got > tc.max {
			t.Errorf("%s(%d) with %d witness(es) allocated %d nodes, more than %d", tc.name, tc.n, tc.witnesses, got, tc.max)
		}
	}
}
