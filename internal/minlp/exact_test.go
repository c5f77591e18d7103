package minlp

import (
	"fmt"
	"math"
	"testing"

	"hslb/internal/expr"
	"hslb/internal/model"
)

// tableIComps are the per-component (a, d) coefficients of tableIModel:
// component i runs in a/nᵢ + d seconds on nᵢ nodes.
var tableIComps = []struct{ a, d float64 }{
	{3157.2, 12.4}, {8464.1, 4.9}, {1214.9, 41.6}, {5419.7, 8.2},
}

// tableIModel mirrors the paper's Table I instance shape the way
// internal/core builds it: integer node counts per component, a continuous
// makespan T, capacity coupling, and (optionally) selection sets
// restricting two components to hardware-legal node counts — the presolve
// edge case where interval screening, SOS reduction and integer rounding
// all fire on one model.
func tableIModel(total int, constrain bool) *model.Model {
	m := model.New()
	T := m.AddVar("T", model.Continuous, 0, 1e9)
	var caps []expr.Expr
	for i, c := range tableIComps {
		n := m.AddVar(fmt.Sprintf("n%d", i), model.Integer, 1, float64(total))
		ti := expr.Sum(expr.Div{Num: expr.C(c.a), Den: n}, expr.C(c.d))
		m.AddConstraint(fmt.Sprintf("t%d", i), expr.Sub(ti, T), model.LE, 0)
		caps = append(caps, n)
		if constrain && i < 2 {
			m.AddSelectionSet(fmt.Sprintf("set%d", i), n,
				[]float64{2, 4, 8, 16, 24, 48, 96})
		}
	}
	m.AddConstraint("cap", expr.Sum(caps...), model.LE, float64(total))
	m.SetObjective(T, model.Minimize)
	return m
}

// exactTableI returns the exact optimum of tableIModel(total, false)
// without a solver: every component time is decreasing in its node count,
// so the min-max allocation is reached by handing the nodes out one at a
// time, each to the component that is currently slowest.
func exactTableI(total int) float64 {
	n := make([]float64, len(tableIComps))
	time := func(i int) float64 { return tableIComps[i].a/n[i] + tableIComps[i].d }
	for i := range n {
		n[i] = 1
	}
	slowest := func() int {
		s := 0
		for i := range n {
			if time(i) > time(s) {
				s = i
			}
		}
		return s
	}
	for left := total - len(n); left > 0; left-- {
		n[slowest()]++
	}
	return time(slowest())
}

// bruteTableI enumerates tableIModel(total, constrain) literally: every
// count the first two components allow, then every split of the nodes left
// between the last two. Handing the last two every node left loses
// nothing, since every component time decreases in its node count.
func bruteTableI(total int, constrain bool) float64 {
	counts := []int{2, 4, 8, 16, 24, 48, 96}
	if !constrain {
		counts = make([]int, total)
		for i := range counts {
			counts[i] = i + 1
		}
	}
	time := func(i, n int) float64 { return tableIComps[i].a/float64(n) + tableIComps[i].d }
	best := math.Inf(1)
	for _, n0 := range counts {
		for _, n1 := range counts {
			rest := total - n0 - n1
			for n2 := 1; n2 < rest; n2++ {
				t := math.Max(math.Max(time(0, n0), time(1, n1)), math.Max(time(2, n2), time(3, rest-n2)))
				best = math.Min(best, t)
			}
		}
	}
	return best
}

// TestSolveMatchesExactOptimum is the exactness gate for the search: on a
// bruteforceable instance and on the free Table I ladder the certified
// answer must be the true optimum, not merely a value within the pruning
// gap of it.
func TestSolveMatchesExactOptimum(t *testing.T) {
	t.Run("brute-force", func(t *testing.T) {
		a1, d1, a2, d2, total := 1000.0, 10.0, 800.0, 8.0, 12
		wantObj, wantN1, wantN2 := bruteMiniHSLB(a1, d1, a2, d2, total)
		r := solveWith(t, miniHSLB(a1, d1, a2, d2, total), Options{})
		if !approxEq(r.Obj, wantObj, 1e-5) {
			t.Fatalf("obj %v, want %v", r.Obj, wantObj)
		}
		if math.Round(r.X[1]) != float64(wantN1) || math.Round(r.X[2]) != float64(wantN2) {
			t.Fatalf("allocation (%v, %v), want (%d, %d)", r.X[1], r.X[2], wantN1, wantN2)
		}
	})
	for _, total := range []int{1024, 2048, 4096} {
		t.Run(fmt.Sprintf("tableI-oa-%d", total), func(t *testing.T) {
			want := exactTableI(total)
			r := solveWith(t, tableIModel(total, false), Options{})
			if rel := math.Abs(r.Obj-want) / want; rel > 1e-9 {
				t.Fatalf("obj %v, exact optimum %v (relative error %.3g)", r.Obj, want, rel)
			}
		})
	}
}

// TestFixedLPKelleyRounds: on a model nonlinear in a continuous variable
// (9/y), the fixed LP's first tangent at y = 1 gives y = 2, T = 9, which
// misses the true row 36/4 + 9/2 ≤ T by 4.5; the Kelley rounds must close
// that to the subproblem's optimum 13.5. On a Table I model, whose rows are
// affine once the node counts are fixed, one LP solve is exact.
func TestFixedLPKelleyRounds(t *testing.T) {
	m := model.New()
	n := m.AddVar("n", model.Integer, 1, 6)
	y := m.AddVar("y", model.Continuous, 0.5, 6)
	T := m.AddVar("T", model.Continuous, 0, 1000)
	m.AddConstraint("time", expr.Sub(expr.Sum(expr.Div{Num: expr.C(36), Den: n}, expr.Div{Num: expr.C(9), Den: y}), T), model.LE, 0)
	m.AddConstraint("cap", expr.Sum(n, y), model.LE, 6)
	m.SetObjective(T, model.Minimize)
	w, err := prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, w.m.NumVars())
	z[n.Index], z[y.Index] = 4, 1
	fs := w.fixedLP(z)
	if fs == nil || math.Abs(fs.obj-13.5) > 1e-4 || w.subLPs < 2 {
		t.Fatalf("fixedLP %+v after %d LP solves; want obj 13.5 after more than one", fs, w.subLPs)
	}

	w, err = prepare(tableIModel(64, false))
	if err != nil {
		t.Fatal(err)
	}
	z = make([]float64, w.m.NumVars())
	for _, j := range w.m.IntegerVars() {
		z[j] = 16
	}
	fs = w.fixedLP(z)
	if fs == nil || w.subLPs != 1 {
		t.Fatalf("Table I model: %+v after %d LP solves; want one", fs, w.subLPs)
	}
	// Slowest component at 16 nodes: 8464.1/16 + 4.9.
	if want := 8464.1/16 + 4.9; math.Abs(fs.obj-want) > 1e-12*want {
		t.Fatalf("obj %v, want %v", fs.obj, want)
	}
}
