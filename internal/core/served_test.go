package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hslb/internal/ampl"
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

// serve sends WriteAMPL's text for the spec through the solve service's
// executor with the library's solver options, checks that the reply is
// optimal and that its variables meet every row of the model within 1e-5,
// and returns the reply's allocation as a Decision.
func serve(t *testing.T, s core.Spec) (*core.Decision, *neos.SolveResponse) {
	t.Helper()
	src, err := core.WriteAMPL(s)
	if err != nil {
		t.Fatal(err)
	}
	resp := neos.ExecuteRequest(context.Background(),
		&neos.SolveRequest{Model: src, BranchSOS: true, RelGap: core.SolverOptions().RelGap}, 1)
	if resp.Status != minlp.Optimal.String() {
		t.Fatalf("served status %q (%s)", resp.Status, resp.Error)
	}
	parsed, err := ampl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := parsed.Model
	x := make([]float64, len(m.Vars))
	for i, v := range m.Vars {
		val, ok := resp.Variables[v.Name]
		if !ok {
			t.Fatalf("reply has no variable %s", v.Name)
		}
		x[i] = val
	}
	for i := range m.Cons {
		if v := m.Cons[i].Violation(x); v > 1e-5 {
			t.Fatalf("reply violates row %s by %g", m.Cons[i].Name, v)
		}
	}
	var alloc cesm.Allocation
	for _, c := range cesm.OptimizedComponents {
		alloc.Set(c, int(resp.Variables["n_"+c.String()]))
	}
	total, comp := core.PredictTotal(s, alloc)
	return &core.Decision{Alloc: alloc, PredictedComp: comp, PredictedTime: total, Status: minlp.Optimal}, resp
}

// objective is the spec's objective value at a decision.
func objective(s core.Spec, d *core.Decision) float64 {
	if s.Objective == core.MaxMin {
		c := d.PredictedComp
		return math.Min(math.Min(c[cesm.ICE], c[cesm.LND]), math.Min(c[cesm.ATM], c[cesm.OCN]))
	}
	return d.PredictedTime
}

// TestServedAnswersAsTheLibrary holds the solve service to SolveAllocation
// on the nonconvex Table I specs, which both route to the exact search: a
// subset of the sync-tolerance grid (the literal fits of fit seeds 1, 3,
// 4, 5, 6 and 8 × 1° 128/512 × SyncTol 0.5/10 s × constrained and free)
// and the max-min spec of each fit, size and set choice, 72 specs. Each
// reply is optimal, its objective is the library's within RelGap, its
// node counts are the library's allocation, and its variables meet every
// row of the model.
func TestServedAnswersAsTheLibrary(t *testing.T) {
	relGap := core.SolverOptions().RelGap
	for _, fit := range []int{1, 3, 4, 5, 6, 8} {
		for _, nodes := range []int{128, 512} {
			for _, constrained := range []bool{true, false} {
				for _, row := range []struct {
					objective core.Objective
					syncTol   float64
				}{{core.MinMax, 0.5}, {core.MinMax, 10}, {core.MaxMin, 0}} {
					s := core.Spec{Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: nodes, Perf: core.KnownFits[fit],
						Objective: row.objective, SyncTol: row.syncTol, ConstrainOcean: constrained, ConstrainAtm: constrained}
					t.Run(fmt.Sprintf("fit%d/%d/%v/sync=%g/constrained=%t", fit, nodes, row.objective, row.syncTol, constrained), func(t *testing.T) {
						lib, err := core.SolveAllocation(s, core.SolverOptions())
						if err != nil {
							t.Fatal(err)
						}
						served, resp := serve(t, s)
						want := objective(s, lib)
						if rel := math.Abs(resp.Objective-want) / math.Abs(want); rel > relGap {
							t.Fatalf("served objective %.12g is %.3g from the library's %.12g", resp.Objective, rel, want)
						}
						if served.Alloc != lib.Alloc {
							t.Fatalf("served allocation %v, library %v", served.Alloc, lib.Alloc)
						}
					})
				}
			}
		}
	}
}

// TestKnownFailuresThroughTheService sends TestKnownFailures' sync and
// max-min rows through the solve service and holds each reply's
// allocation to the brute-force optimum, as that test holds
// SolveAllocation's.
func TestKnownFailuresThroughTheService(t *testing.T) {
	for _, tc := range core.KnownFailureRows {
		t.Run(tc.Name(), func(t *testing.T) {
			core.CheckExact(t, tc.Spec(), func(s core.Spec) (*core.Decision, error) {
				d, _ := serve(t, s)
				return d, nil
			})
		})
	}
}
