package minlp_test

import (
	"fmt"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/experiments"
	"hslb/internal/lp"
	"hslb/internal/minlp"
)

// TestSearchPointsSatisfyEveryCut holds the lazy node LPs to their
// invariant on the ten table3-pipeline rungs that core's
// TestSolveSearchPinned pins: a node LP holds only part of the global cuts,
// but every LP point the search branches on, tests for an incumbent or
// hands to a subproblem violates no global cut by more than the simplex's
// feasibility tolerance, so node bounds are those of the LP over all cuts.
func TestSearchPointsSatisfyEveryCut(t *testing.T) {
	type rung struct {
		res         cesm.Resolution
		nodes       int
		constrained bool
		seed        int64
	}
	var rungs []rung
	for _, seed := range []int64{2, 3} {
		rungs = append(rungs, rung{cesm.Res1Deg, 128, true, seed})
		for _, n := range []int{8192, 32768} {
			rungs = append(rungs, rung{cesm.Res8thDeg, n, true, seed}, rung{cesm.Res8thDeg, n, false, seed})
		}
	}
	for _, r := range rungs {
		t.Run(fmt.Sprintf("%v-%d-seed%d-constrained=%v", r.res, r.nodes, r.seed, r.constrained), func(t *testing.T) {
			models, err := experiments.FitModels(r.res, r.seed)
			if err != nil {
				t.Fatal(err)
			}
			m, _, err := core.BuildModel(core.Spec{
				Resolution: r.res, Layout: cesm.Layout1, TotalNodes: r.nodes, Perf: models,
				ConstrainOcean: r.constrained, ConstrainAtm: r.constrained && r.res == cesm.Res1Deg,
			})
			if err != nil {
				t.Fatal(err)
			}
			points := 0
			res, err := minlp.SolveWatched(m, core.SolverOptions(), func(x []float64, cuts []lp.Constraint) {
				points++
				for k, c := range cuts {
					v := -c.RHS
					for j, a := range c.Coef {
						v += a * x[j]
					}
					if v > lp.FeasTol {
						t.Errorf("point %d violates cut %d of %d by %.3g", points, k, len(cuts), v)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != minlp.Optimal || points == 0 {
				t.Fatalf("status %v, %d points watched", res.Status, points)
			}
		})
	}
}
