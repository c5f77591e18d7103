package minlp

import (
	"context"

	"hslb/internal/lp"
	"hslb/internal/model"
)

// CutsMatchLinearizeAt exposes cutsMatchLinearizeAt to the minlp_test
// package, whose model tests import packages that import minlp.
var CutsMatchLinearizeAt = cutsMatchLinearizeAt

// SolveWatched is Solve with watch called on every LP point the search
// acts on, beside the global cut list at that moment.
func SolveWatched(m *model.Model, opt Options, watch func(x []float64, cuts []lp.Constraint)) (*Result, error) {
	return solveContext(context.Background(), m, opt, watch)
}
