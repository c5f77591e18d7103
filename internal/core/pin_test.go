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

// TestSolveSearchPinned pins the paper-configuration search on every
// table3-pipeline rung (the constrained 1° block and the four 1/8° blocks,
// constrained and free) for two fit seeds, fitted as the benchmark fits them
// (the same campaign and fit options as experiments.FitModels). The node,
// NLP-solve, cut and warm-resolve counts were last re-recorded by the
// change that replaced the root NLP relaxation by a pool of tangent cuts:
// pool cuts now separate fractional LP points too, so the tree is five to
// twenty times smaller, and the NLP-solve count no longer holds the root
// relaxation but counts every fixed-integer LP solve, the canonical
// finish's probes included. The objective's bits did not move. Speed work
// that leaves the subproblem answers and the LP rows alone must leave
// every count unchanged.
func TestSolveSearchPinned(t *testing.T) {
	pins := []struct {
		res                     cesm.Resolution
		nodes                   int
		constrained             bool
		seed                    int64
		bbNodes, nlps, cuts, lp int
		obj                     uint64
	}{
		{cesm.Res1Deg, 128, true, 2, 23, 4, 18, 3, 0x4079077ca605a2c5},
		{cesm.Res1Deg, 128, true, 3, 15, 4, 18, 3, 0x40792bf655052c94},
		{cesm.Res8thDeg, 8192, true, 2, 6, 5, 25, 5, 0x40aa11f125e7b3ef},
		{cesm.Res8thDeg, 8192, true, 3, 7, 6, 31, 6, 0x40aa0c4d8ca2e50a},
		{cesm.Res8thDeg, 32768, true, 2, 7, 5, 22, 5, 0x409992c2d220ec11},
		{cesm.Res8thDeg, 32768, true, 3, 11, 5, 28, 7, 0x4097d91e0093942e},
		{cesm.Res8thDeg, 8192, false, 2, 26, 7, 40, 7, 0x40a8c5b733a5c3e9},
		{cesm.Res8thDeg, 8192, false, 3, 23, 7, 38, 7, 0x40a8d3285293e57e},
		{cesm.Res8thDeg, 32768, false, 2, 72, 11, 58, 11, 0x4093b3a0059d90ff},
		{cesm.Res8thDeg, 32768, false, 3, 49, 8, 50, 9, 0x40914685a4a41312},
	}
	for _, p := range pins {
		name := fmt.Sprintf("%v-%d-seed%d", p.res, p.nodes, p.seed)
		if !p.constrained {
			name += "-free"
		}
		t.Run(name, func(t *testing.T) {
			models, err := experiments.FitModels(p.res, p.seed)
			if err != nil {
				t.Fatal(err)
			}
			spec := core.Spec{
				Resolution: p.res, Layout: cesm.Layout1, TotalNodes: p.nodes, Perf: models,
				ConstrainOcean: p.constrained, ConstrainAtm: p.constrained && p.res == cesm.Res1Deg,
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
