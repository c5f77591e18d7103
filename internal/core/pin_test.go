package core_test

import (
	"fmt"
	"math"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/experiments"
	"hslb/internal/minlp"
	"hslb/internal/model"
)

// rung is one table3-pipeline rung shape at one fit seed, fitted as the
// benchmark fits it (the same campaign and fit options as
// experiments.FitModels), on layout 1.
type rung struct {
	res         cesm.Resolution
	nodes       int
	constrained bool
	seed        int64
}

func (r rung) name() string {
	name := fmt.Sprintf("%v-%d-seed%d", r.res, r.nodes, r.seed)
	if !r.constrained {
		name += "-free"
	}
	return name
}

// model builds the rung's Table I min-max model.
func (r rung) model(tb testing.TB) *model.Model {
	tb.Helper()
	models, err := experiments.FitModels(r.res, r.seed)
	if err != nil {
		tb.Fatal(err)
	}
	spec := core.Spec{
		Resolution: r.res, Layout: cesm.Layout1, TotalNodes: r.nodes, Perf: models,
		ConstrainOcean: r.constrained, ConstrainAtm: r.constrained && r.res == cesm.Res1Deg,
	}
	m, _, err := core.BuildModel(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// searchPins are TestSolveSearchPinned's rows.
var searchPins = []struct {
	rung
	bbNodes, nlps, cuts, lp int
	obj                     uint64
}{
	{rung{cesm.Res1Deg, 128, true, 2}, 19, 4, 19, 17, 0x4079077ca605a2c5},
	{rung{cesm.Res1Deg, 128, true, 3}, 13, 4, 18, 12, 0x40792bf655052c94},
	{rung{cesm.Res8thDeg, 8192, true, 2}, 8, 6, 30, 14, 0x40aa11f125e7b3ef},
	{rung{cesm.Res8thDeg, 8192, true, 3}, 8, 6, 31, 14, 0x40aa0c4d8ca2e50a},
	{rung{cesm.Res8thDeg, 32768, true, 2}, 5, 5, 21, 13, 0x409992c2d220ec11},
	{rung{cesm.Res8thDeg, 32768, true, 3}, 13, 5, 28, 20, 0x4097d91e0093942e},
	{rung{cesm.Res8thDeg, 8192, false, 2}, 17, 9, 45, 24, 0x40a8c5a2c15ccd39},
	{rung{cesm.Res8thDeg, 8192, false, 3}, 21, 7, 39, 23, 0x40a8d3285293e57e},
	{rung{cesm.Res8thDeg, 32768, false, 2}, 77, 11, 60, 85, 0x4093b39b3387b3d8},
	{rung{cesm.Res8thDeg, 32768, false, 3}, 47, 8, 49, 38, 0x4091461d839d53fe},
}

// TestSolveSearchPinned pins the paper-configuration search on every
// table3-pipeline rung (the constrained 1° block and the four 1/8° blocks,
// constrained and free) for two fit seeds. The node, NLP-solve, cut and
// warm-resolve counts were last re-recorded by the change that made node
// LPs hold only the cuts that bind there: a child LP starts from the root
// linearization and the cuts tight at its parent's final point and takes
// in the others lazily, as its point violates them, and the dual simplex
// walks bound flips in one ratio test. That changes the LP rows, so the
// vertex picked among alternative optima, and with it the branching and
// the tree, moved on every rung; the warm-resolve count now also counts
// the lazy re-solves. Three objectives moved down, each within the
// solver's RelGap (8192 free seed 2 by −1.3e-5, 32768 free seed 2 by
// −3.7e-6, 32768 free seed 3 by −9.2e-5): the search prunes at that gap,
// so it may stop at any allocation within it. Speed work that leaves the
// subproblem answers and the LP rows alone must leave every count
// unchanged.
func TestSolveSearchPinned(t *testing.T) {
	for _, p := range searchPins {
		t.Run(p.name(), func(t *testing.T) {
			r, err := minlp.Solve(p.model(t), core.SolverOptions())
			if err != nil {
				t.Fatal(err)
			}
			got := [5]uint64{uint64(r.Nodes), uint64(r.NLPSolves), uint64(r.Cuts), uint64(r.LPWarm.WarmResolves), math.Float64bits(r.Obj)}
			want := [5]uint64{uint64(p.bbNodes), uint64(p.nlps), uint64(p.cuts), uint64(p.lp), p.obj}
			if got != want {
				t.Fatalf("nodes, NLP solves, cuts, warm resolves, obj bits = %d, %d, %d, %d, %#x; pinned %d, %d, %d, %d, %#x (obj %v)",
					got[0], got[1], got[2], got[3], got[4], want[0], want[1], want[2], want[3], want[4], r.Obj)
			}
		})
	}
}
