package expr_test

import (
	"fmt"
	"math"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/expr"
	"hslb/internal/perf"
)

// TestTapeMatchesTreeOnModels holds the tape to the tree walkers on every
// constraint and objective body core.BuildModel produces for the benchmark's
// twelve rung shapes, under each layout and objective, at the box's corners,
// centre and one point spread across it.
func TestTapeMatchesTreeOnModels(t *testing.T) {
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
	objectives := []core.Objective{core.MinMax, core.MaxMin, core.MinSum}
	layouts := []cesm.Layout{cesm.Layout1, cesm.Layout2, cesm.Layout3}

	bodies := 0
	for _, sh := range shapes {
		models := map[cesm.Component]perf.Model{}
		for _, c := range cesm.OptimizedComponents {
			models[c] = cesm.TruthModel(sh.res, c)
		}
		for _, layout := range layouts {
			for _, obj := range objectives {
				spec := core.Spec{
					Resolution: sh.res, Layout: layout, TotalNodes: sh.nodes, Perf: models,
					Objective: obj, ConstrainOcean: sh.constrained,
					ConstrainAtm: sh.constrained && sh.res == cesm.Res1Deg,
				}
				m, _, err := core.BuildModel(spec)
				if err != nil {
					t.Fatalf("%+v: %v", spec, err)
				}
				lo, hi, mid, spread := make([]float64, len(m.Vars)), make([]float64, len(m.Vars)), make([]float64, len(m.Vars)), make([]float64, len(m.Vars))
				for i, v := range m.Vars {
					up := v.Upper
					if math.IsInf(up, 1) {
						up = v.Lower + 1e3
					}
					lo[i], hi[i], mid[i] = v.Lower, up, (v.Lower+up)/2
					spread[i] = v.Lower + (up-v.Lower)*float64(i*37%100)/100
				}
				exprs := []expr.Expr{m.Objective}
				for _, c := range m.Cons {
					exprs = append(exprs, c.Body)
				}
				for _, e := range exprs {
					for _, x := range [][]float64{lo, hi, mid, spread} {
						if err := expr.TapeMatchesTree(e, x); err != nil {
							t.Fatal(fmt.Sprintf("%v %v %v-%d: ", layout, obj, sh.res, sh.nodes) + err.Error())
						}
					}
					bodies++
				}
			}
		}
	}
	if bodies == 0 {
		t.Fatal("no bodies compared")
	}
}

// TestCompileAllocsOn8thDeg8192 bounds the allocations of compiling every
// row of the 1/8° 8192-node model at half the 166 it took when Compile
// re-walked each subtree at every node and linear-sum term to learn whether
// it read a variable.
func TestCompileAllocsOn8thDeg8192(t *testing.T) {
	models := map[cesm.Component]perf.Model{}
	for _, c := range cesm.OptimizedComponents {
		models[c] = cesm.TruthModel(cesm.Res8thDeg, c)
	}
	m, _, err := core.BuildModel(core.Spec{
		Resolution: cesm.Res8thDeg, Layout: cesm.Layout1, TotalNodes: 8192, Perf: models,
		Objective: core.MinMax, ConstrainOcean: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []expr.Expr{m.Objective}
	for _, c := range m.Cons {
		rows = append(rows, c.Body)
	}
	n := testing.AllocsPerRun(5, func() {
		for _, e := range rows {
			expr.Compile(e)
		}
	})
	const bound = 166 / 2
	if n > bound {
		t.Fatalf("compiling %d rows allocates %.0f times, want at most %d", len(rows), n, bound)
	}
}
