package minlp_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/minlp"
	"hslb/internal/model"
	"hslb/internal/perf"
)

// rungSpecs returns a spec for each of the benchmark's twelve rung shapes
// under every layout and objective, with the components' truth models.
func rungSpecs() []core.Spec {
	type shape struct {
		res         cesm.Resolution
		nodes       int
		constrained bool
	}
	shapes := []shape{{cesm.Res1Deg, 128, true}}
	for _, n := range []int{128, 256, 512, 1024, 2048} {
		shapes = append(shapes, shape{cesm.Res1Deg, n, false})
	}
	for _, n := range []int{8192, 16384, 32768} {
		shapes = append(shapes, shape{cesm.Res8thDeg, n, true}, shape{cesm.Res8thDeg, n, false})
	}
	var specs []core.Spec
	for _, sh := range shapes {
		models := map[cesm.Component]perf.Model{}
		for _, c := range cesm.OptimizedComponents {
			models[c] = cesm.TruthModel(sh.res, c)
		}
		for _, layout := range []cesm.Layout{cesm.Layout1, cesm.Layout2, cesm.Layout3} {
			for _, obj := range []core.Objective{core.MinMax, core.MaxMin, core.MinSum} {
				specs = append(specs, core.Spec{
					Resolution: sh.res, Layout: layout, TotalNodes: sh.nodes, Perf: models,
					Objective: obj, ConstrainOcean: sh.constrained,
					ConstrainAtm: sh.constrained && sh.res == cesm.Res1Deg,
				})
			}
		}
	}
	return specs
}

// TestCutAtMatchesLinearizeAtOnModels holds every cut the search takes from a
// row's tape to the tree linearization, bit for bit, on every nonlinear row
// core.BuildModel emits for the benchmark's rungs: at the tangent-pool points
// and at seeded interior points of the presolved box.
func TestCutAtMatchesLinearizeAtOnModels(t *testing.T) {
	compared := 0
	for k, spec := range rungSpecs() {
		m, _, err := core.BuildModel(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		n, err := minlp.CutsMatchLinearizeAt(m, int64(k+1), 8)
		if err != nil {
			t.Fatalf("%v %v %v-%d: %v", spec.Layout, spec.Objective, spec.Resolution, spec.TotalNodes, err)
		}
		compared += n
	}
	if compared == 0 {
		t.Fatal("no cuts compared")
	}
}

// TestConcurrentSolvesOfOneModel solves one model from eight goroutines at
// once. Each solve compiles and owns its row tapes, so every result must
// equal the sequential solve bit for bit (and make race sees no shared
// buffer).
func TestConcurrentSolvesOfOneModel(t *testing.T) {
	models := map[cesm.Component]perf.Model{}
	for _, c := range cesm.OptimizedComponents {
		models[c] = cesm.TruthModel(cesm.Res8thDeg, c)
	}
	m, _, err := core.BuildModel(core.Spec{
		Resolution: cesm.Res8thDeg, Layout: cesm.Layout1, TotalNodes: 8192, Perf: models,
		ConstrainOcean: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := solveDigest(t, m)
	const goroutines = 8
	got := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = solveDigest(t, m)
		}(g)
	}
	wg.Wait()
	for g, d := range got {
		if d != want {
			t.Errorf("goroutine %d: %s\nsequential: %s", g, d, want)
		}
	}
}

// solveDigest solves m in the paper configuration and renders the result with
// every float as its bits.
func solveDigest(t *testing.T, m *model.Model) string {
	r, err := minlp.Solve(m, core.SolverOptions())
	if err != nil {
		t.Error(err)
		return err.Error()
	}
	bits := make([]uint64, len(r.X))
	for j, v := range r.X {
		bits[j] = math.Float64bits(v)
	}
	return fmt.Sprintf("%v obj %#x nodes %d cuts %d fixed LPs %d warm %+v x %x",
		r.Status, math.Float64bits(r.Obj), r.Nodes, r.Cuts, r.NLPSolves, r.LPWarm, bits)
}
