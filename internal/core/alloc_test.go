package core

import (
	"context"
	"os"
	"testing"

	"repro/internal/repair"
)

// TestRunAllocations pins how many BDD nodes a serial lazy repair plus
// verification allocates, and its peak live nodes. The fused products
// (∃(f∧¬g) in the group closure, images and preimages without a renamed
// copy, the cyclic core without region ∧ region′) brought sc(14) from
// 106,963 allocated nodes to 81,209 and ba(14) with 4 witnesses from 683,037
// to 568,707; the group closure without its candidate relation, the rank
// layers and closure tests as one f ∧ g ∧ ¬h product each, to 80,674 and
// 452,448. While nothing was collected inside a job, its peak was that whole
// allocation history (80,676 and 452,450); collecting when the unique table
// crosses its load limit makes the peak follow the live set, and the
// allocation count now also holds the intermediates an operation re-creates
// after a collection freed them.
func TestRunAllocations(t *testing.T) {
	if os.Getenv("REPRO_GC_STRESS") != "" || os.Getenv("REPRO_REORDER_STRESS") != "" {
		t.Skip("stress collections and sifting passes set the counts, not the run")
	}
	for _, tc := range []struct {
		name         string
		n, witnesses int
		max, maxPeak int64
	}{
		{"sc", 14, 0, 95_000, 75_000},
		{"ba", 14, 4, 500_000, 400_000},
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
		t.Logf("%s(%d), %d witness(es): %d nodes allocated, peak %d live", tc.name, tc.n, tc.witnesses, got, out.PeakNodes)
		if got > tc.max {
			t.Errorf("%s(%d) with %d witness(es) allocated %d nodes, more than %d", tc.name, tc.n, tc.witnesses, got, tc.max)
		}
		if out.PeakNodes > tc.maxPeak {
			t.Errorf("%s(%d) with %d witness(es) peaked at %d live nodes, more than %d", tc.name, tc.n, tc.witnesses, out.PeakNodes, tc.maxPeak)
		}
	}
}
