package repair

import (
	"context"

	"repro/internal/bdd"
	"repro/internal/program"
)

// RealizePartsEngine implements Step 2 (Algorithm 2): it revises the
// intermediate program delta — the output of Add-Masking — into a
// realizable one by removing transitions only, and returns the per-process
// transition sets δ_j.
//
// Line 1 of Algorithm 2: every transition starting outside the fault-span
// span is added for free, because those states are never reached; their
// presence lets read-restriction groups that straddle the span boundary
// survive. Then, for each process, the algorithm keeps exactly the
// transitions whose entire group is present (the closed form of the
// Algorithm-2 loop; the explicit engine implements the literal loop with
// ExpandGroup and tests assert both agree — see DESIGN.md §4).
//
// Each part is realizable by its process (a union of complete groups); the
// program's transitions are their union, which may still contain deadlocks
// within the span: Algorithm 1's outer loop detects those and re-runs both
// steps with an augmented safety specification. The caller may remove
// further whole groups from a part (e.g. to break livelocks) without losing
// realizability. The group closures — the expensive part of Step 2 — are
// the engine's Split, which fans them out across the workers when the
// candidate relation is large enough to pay for it; the merged result is
// identical to the serial one. Like Split's, the parts are unrooted on
// return.
func RealizePartsEngine(ctx context.Context, e *program.Engine, delta, span bdd.Node) ([]bdd.Node, error) {
	c := e.C
	m := c.Space.M
	free := m.And(m.Not(span), c.Space.ValidTrans())
	return e.Split(ctx, m.Or(m.And(delta, c.Space.ValidTrans()), free))
}
