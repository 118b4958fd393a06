package core

import (
	"context"
	"testing"
)

// TestFixpointCounters asserts that the scheduler's observability counters
// (RunReport fix_* fields) are populated by a run and stripped by Normalized —
// they describe how the fixpoints were computed, not what they computed.
func TestFixpointCounters(t *testing.T) {
	def, err := CaseStudy("sc", 4)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Def: def, Algorithm: LazyRepair, Verify: false}
	out, err := Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunReport(job, out, "sc", 4)
	if r.FixRounds <= 0 {
		t.Errorf("FixRounds = %d, want > 0", r.FixRounds)
	}
	if r.FixImages <= 0 {
		t.Errorf("FixImages = %d, want > 0", r.FixImages)
	}
	n := r.Normalized()
	if n.FixRounds != 0 || n.FixImages != 0 {
		t.Errorf("Normalized kept scheduler counters: %+v", n)
	}
}
