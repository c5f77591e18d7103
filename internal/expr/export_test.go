package expr

// TapeMatchesTree exposes tapeMatchesTree to the expr_test package, whose
// model-body test imports packages that import expr.
var TapeMatchesTree = tapeMatchesTree
