package core

// Exported for the external tests that send Table I models through the
// solve service (served_test.go), which package core cannot import.
var (
	KnownFits        = knownFits
	KnownFailureRows = knownFailureRows
	CheckExact       = checkExact
)

func (tc knownFailure) Spec() Spec   { return tc.spec() }
func (tc knownFailure) Name() string { return tc.name() }
