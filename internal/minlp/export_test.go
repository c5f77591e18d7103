package minlp

// CutsMatchLinearizeAt exposes cutsMatchLinearizeAt to the minlp_test
// package, whose model tests import packages that import minlp.
var CutsMatchLinearizeAt = cutsMatchLinearizeAt
