package program

// Test-only exports for the external program_test package: CyclicCore's
// acyclicity certificate, its verdicts and the reference peel, and the
// closure and peel comparisons of closure_prop_test.go.
var (
	CertifyAcyclic     = certifyAcyclic
	CyclicCorePeel     = cyclicCorePeel
	CheckMaxRealizable = checkMaxRealizable
	CheckPeel          = checkPeel
	RequireTally       = requireTally
)

type ClosureTally = closureTally

const (
	CertProved           = certProved
	CertCyclicGraph      = certCyclicGraph
	CertWriteIllegal     = certWriteIllegal
	CertCyclicProjection = certCyclicProjection
)
