package repair

// ThinAlwaysExact exposes the thinning reference switch to the external
// tests: while it is set, every thinning trial runs the exact loop.
var ThinAlwaysExact = &thinAlwaysExact

// RankViolations exposes one DeferCycleBreaking ranking to the external
// tests, which pin it to the per-part reference.
var RankViolations = rankViolations

// RecoveryParts exposes Step 1's per-process part construction to the
// external tests, which pin it to the cut of the global contexts.
var RecoveryParts = recoveryParts
