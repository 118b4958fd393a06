package program_test

import (
	"os"
	"testing"

	"repro/internal/casestudies"
	"repro/internal/program"
)

// TestCompileAllocations pins how many BDD nodes Compile allocates. Below
// the collector's 2^21-allocation cadence nothing is reclaimed inside a
// job, so every node compile allocates stays live for the rest of it.
// Compile builds its frames, write and read restrictions and n-ary
// connectives bottom-up and allocates 42,667 nodes on ba(14) and 20,682 on
// sc(14); the top-down folds it replaced allocated 257,259 and 63,585.
func TestCompileAllocations(t *testing.T) {
	if os.Getenv("REPRO_GC_STRESS") != "" || os.Getenv("REPRO_REORDER_STRESS") != "" {
		t.Skip("collections and sifting passes re-create nodes, so the count is not compile's own")
	}
	for _, tc := range []struct {
		def *program.Def
		max int64
	}{
		{casestudies.BA(14), 50_000},
		{casestudies.SC(14), 25_000},
	} {
		c := tc.def.MustCompile()
		if got := c.Space.M.Stats().NodesAllocated; got > tc.max {
			t.Errorf("compiling %s allocated %d nodes, more than %d", tc.def.Name, got, tc.max)
		}
	}
}
