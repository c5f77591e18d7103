package core_test

import (
	"fmt"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/experiments"
	"hslb/internal/minlp"
	"hslb/internal/model"
)

// BenchmarkSolveMinSum times the search on the 1° constrained min-sum
// model (layout 1, fit seed 7), the shape whose trees grow largest: its
// node LPs run the longest dual simplex walks. The model is built once per
// size; each iteration is one minlp.Solve with core.SolverOptions.
// Run with `make bench-solver`.
func BenchmarkSolveMinSum(b *testing.B) {
	models, err := experiments.FitModels(cesm.Res1Deg, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, nodes := range []int{128, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			m, _, err := core.BuildModel(core.Spec{
				Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: nodes, Perf: models,
				Objective: core.MinSum, ConstrainOcean: true, ConstrainAtm: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			benchSolve(b, m)
		})
	}
}

// BenchmarkSolveTable3Rungs times the search on the ten table3-pipeline
// rungs that TestSolveSearchPinned pins.
func BenchmarkSolveTable3Rungs(b *testing.B) {
	for _, p := range searchPins {
		b.Run(p.name(), func(b *testing.B) {
			benchSolve(b, p.model(b))
		})
	}
}

// benchSolve times minlp.Solve on m with core.SolverOptions and reports
// the search's node count and its cold-solved LPs beside the time.
func benchSolve(b *testing.B, m *model.Model) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := minlp.Solve(m, core.SolverOptions())
		if err != nil {
			b.Fatal(err)
		}
		if r.Status != minlp.Optimal {
			b.Fatalf("status %v", r.Status)
		}
		b.ReportMetric(float64(r.Nodes), "bb-nodes")
		b.ReportMetric(float64(r.LPWarm.ColdSolves), "cold-lps")
	}
}
