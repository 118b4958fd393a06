package program

// Test-only exports for the external program_test package: CyclicCore's
// acyclicity certificate, its verdicts and the reference peel.
var (
	CertifyAcyclic = certifyAcyclic
	CyclicCorePeel = cyclicCorePeel
)

const (
	CertProved           = certProved
	CertCyclicGraph      = certCyclicGraph
	CertWriteIllegal     = certWriteIllegal
	CertCyclicProjection = certCyclicProjection
)
