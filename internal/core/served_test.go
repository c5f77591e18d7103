package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/experiments"
	"hslb/internal/minlp"
	"hslb/internal/neos"
	"hslb/internal/perf"
)

// TestServedModelIsLibraryModel sends WriteAMPL's text through the solve
// service's executor and checks it walks the library's tree: BuildModel
// parses that same text and selection sets arrive as SOS-1 sets on both
// paths, so the node count and the objective's bits must agree. The rungs
// are the constrained 1° 128-node block and the four 1/8° Table III
// blocks, on fit seed 2.
func TestServedModelIsLibraryModel(t *testing.T) {
	specs := []core.Spec{{Resolution: cesm.Res1Deg, TotalNodes: 128, ConstrainOcean: true, ConstrainAtm: true}}
	for _, b := range experiments.Table3Blocks {
		if b.Resolution == cesm.Res8thDeg {
			specs = append(specs, core.Spec{Resolution: b.Resolution, TotalNodes: b.TotalNodes, ConstrainOcean: b.ConstrainOcean})
		}
	}
	fits := map[cesm.Resolution]map[cesm.Component]perf.Model{}
	for _, s := range specs {
		if fits[s.Resolution] == nil {
			models, err := experiments.FitModels(s.Resolution, 2)
			if err != nil {
				t.Fatal(err)
			}
			fits[s.Resolution] = models
		}
		s.Layout = cesm.Layout1
		s.Perf = fits[s.Resolution]
		t.Run(fmt.Sprintf("%v-%d-constrained=%t", s.Resolution, s.TotalNodes, s.ConstrainOcean), func(t *testing.T) {
			m, _, err := core.BuildModel(s)
			if err != nil {
				t.Fatal(err)
			}
			lib, err := minlp.Solve(m, core.SolverOptions())
			if err != nil {
				t.Fatal(err)
			}
			src, err := core.WriteAMPL(s)
			if err != nil {
				t.Fatal(err)
			}
			resp := neos.ExecuteRequest(context.Background(),
				&neos.SolveRequest{Model: src, BranchSOS: true, RelGap: core.SolverOptions().RelGap}, 1)
			if resp.Status != minlp.Optimal.String() {
				t.Fatalf("served status %q (%s)", resp.Status, resp.Error)
			}
			if resp.Nodes != lib.Nodes || math.Float64bits(resp.Objective) != math.Float64bits(lib.Obj) {
				t.Fatalf("served %d nodes, obj %v; library %d nodes, obj %v",
					resp.Nodes, resp.Objective, lib.Nodes, lib.Obj)
			}
		})
	}
}
