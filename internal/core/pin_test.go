package core_test

import (
	"fmt"
	"math"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/experiments"
	"hslb/internal/minlp"
)

// TestSolveSearchPinned pins the paper-configuration search on two Table III
// rungs for two fit seeds, fitted as the benchmark fits them (the same
// campaign and fit options as experiments.FitModels). The node,
// NLP-solve, cut and warm-resolve counts and the objective's bits were
// recorded at the commit before the NLP solver moved onto compiled tapes;
// speed work on the solver stack must leave every one unchanged.
func TestSolveSearchPinned(t *testing.T) {
	pins := []struct {
		res                     cesm.Resolution
		nodes                   int
		seed                    int64
		bbNodes, nlps, cuts, lp int
		obj                     uint64
	}{
		{cesm.Res1Deg, 128, 2, 159, 14, 78, 10, 0x4079077ca609b179},
		{cesm.Res1Deg, 128, 3, 133, 13, 72, 9, 0x40792bf654e155aa},
		{cesm.Res8thDeg, 8192, 2, 115, 20, 116, 19, 0x40aa11f125e33904},
		{cesm.Res8thDeg, 8192, 3, 137, 28, 149, 27, 0x40aa0c4d8c9e6a21},
	}
	for _, p := range pins {
		name := fmt.Sprintf("%v-%d-seed%d", p.res, p.nodes, p.seed)
		t.Run(name, func(t *testing.T) {
			models, err := experiments.FitModels(p.res, p.seed)
			if err != nil {
				t.Fatal(err)
			}
			spec := core.Spec{
				Resolution: p.res, Layout: cesm.Layout1, TotalNodes: p.nodes, Perf: models,
				ConstrainOcean: true, ConstrainAtm: p.res == cesm.Res1Deg,
			}
			m, _, err := core.BuildModel(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := minlp.Solve(m, core.SolverOptions())
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
