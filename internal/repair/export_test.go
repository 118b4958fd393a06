package repair

// ThinAlwaysExact exposes the thinning reference switch to the external
// tests: while it is set, every thinning trial runs the exact loop.
var ThinAlwaysExact = &thinAlwaysExact
