package core_test

import (
	"fmt"
	"math"
	"testing"

	"hslb/internal/ampl"
	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/experiments"
	"hslb/internal/expr"
	"hslb/internal/minlp"
	"hslb/internal/model"
	"hslb/internal/perf"
)

// truthPerf is the simulator's ground-truth performance model per
// component, so the tests below exercise the solve step alone.
func truthPerf(res cesm.Resolution) map[cesm.Component]perf.Model {
	out := map[cesm.Component]perf.Model{}
	for _, c := range cesm.OptimizedComponents {
		out[c] = cesm.TruthModel(res, c)
	}
	return out
}

// TestBuiltModelsHaveFiniteNonlinearBounds checks minlp's finite-box rule
// on every model the pipeline builds: the nonlinearity T_j(n_j) involves
// only the integer node counts, which have finite bounds, so minlp accepts
// every BuildModel model and its AMPL export parsed back, though T_icelnd
// is unbounded above (it appears only linearly). One node is enough: the
// rule is checked before the search.
func TestBuiltModelsHaveFiniteNonlinearBounds(t *testing.T) {
	opt := core.SolverOptions()
	opt.MaxNodes = 1
	flag := func(t *testing.T, m *model.Model, opt minlp.Options) {
		t.Helper()
		if _, err := minlp.Solve(m, opt); err != nil {
			t.Fatal(err)
		}
	}
	var specs []core.Spec
	for _, obj := range []core.Objective{core.MinMax, core.MinSum, core.MaxMin} {
		for _, layout := range []cesm.Layout{cesm.Layout1, cesm.Layout2, cesm.Layout3} {
			specs = append(specs, core.Spec{
				Resolution: cesm.Res1Deg, Layout: layout, TotalNodes: 128, Objective: obj,
				Perf: truthPerf(cesm.Res1Deg), ConstrainOcean: true, ConstrainAtm: true,
			})
		}
	}
	sync := specs[0]
	sync.SyncTol = 5
	specs = append(specs, sync)
	for _, s := range specs {
		t.Run(fmt.Sprintf("build-%v-layout%d-sync%g", s.Objective, int(s.Layout)+1, s.SyncTol), func(t *testing.T) {
			m, _, err := core.BuildModel(s)
			if err != nil {
				t.Fatal(err)
			}
			flag(t, m, opt)
		})
		if s.Objective != core.MinMax {
			continue
		}
		t.Run(fmt.Sprintf("ampl-layout%d-sync%g", int(s.Layout)+1, s.SyncTol), func(t *testing.T) {
			src, err := core.WriteAMPL(s)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ampl.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			flag(t, parsed.Model, opt)
		})
	}
}

// TestNonlinearContinuousSubproblems builds models nonlinear in a
// continuous variable (under Pow, under Exp, or in a product of two
// variable-carrying factors), whose fixed-integer subproblems take several
// Kelley rounds, and checks they still solve to their optimum. Each is
//
//	minimize T  s.t.  c/n + g(y) ≤ T,  n + y ≤ 6,  n ∈ {1..6}
//
// with g decreasing on the feasible y, so y = 6 − n and the optimum is the
// best of a handful of closed-form values, all at n = 4, y = 2.
func TestNonlinearContinuousSubproblems(t *testing.T) {
	cases := []struct {
		name string
		c    float64
		ylo  float64
		g    func(y expr.Expr) expr.Expr
		want float64
	}{
		{"pow", 36, 0.5, func(y expr.Expr) expr.Expr {
			return expr.Prod(expr.C(9), expr.Pow{Base: y, Exponent: expr.C(-1)})
		}, 36.0/4 + 9.0/2},
		{"exp", 36, 0, func(y expr.Expr) expr.Expr {
			return expr.Prod(expr.C(9), expr.Exp{Arg: expr.Prod(expr.C(-0.5), y)})
		}, 36.0/4 + 9*math.Exp(-1)},
		{"mul", 40, 0, func(y expr.Expr) expr.Expr {
			d := expr.Sub(expr.C(4), y)
			return expr.Mul{Factors: []expr.Expr{d, d}}
		}, 40.0/4 + 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := model.New()
			n := m.AddVar("n", model.Integer, 1, 6)
			y := m.AddVar("y", model.Continuous, tc.ylo, 6)
			T := m.AddVar("T", model.Continuous, 0, 1000)
			m.AddConstraint("time", expr.Sub(expr.Sum(expr.Div{Num: expr.C(tc.c), Den: n}, tc.g(y)), T), model.LE, 0)
			m.AddConstraint("cap", expr.Sum(n, y), model.LE, 6)
			m.SetObjective(T, model.Minimize)
			r, err := minlp.Solve(m, core.SolverOptions())
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != minlp.Optimal || r.X[n.Index] != 4 {
				t.Fatalf("status %v, n = %v; want optimal at n = 4", r.Status, r.X[n.Index])
			}
			if math.Abs(r.Obj-tc.want) > 1e-4*tc.want || math.Abs(r.X[y.Index]-2) > 1e-3 {
				t.Fatalf("obj %v at y = %v; want %v at y = 2", r.Obj, r.X[y.Index], tc.want)
			}
		})
	}
}

// TestExactSubproblemObjective checks, on the Table III sizes (layout 1,
// ocean constrained and free; 1° 2048 is left out, its tree alone costs
// seconds), that the search is optimal by the library and through the AMPL
// text, and that the returned objective is the exact makespan of the
// returned allocation, not a FeasTol-close estimate of it: it must equal
// max(max(T_ice, T_lnd) + T_atm, T_ocn) to within rounding.
func TestExactSubproblemObjective(t *testing.T) {
	sizes := []struct {
		res   cesm.Resolution
		nodes int
	}{{cesm.Res1Deg, 128}, {cesm.Res8thDeg, 8192}, {cesm.Res8thDeg, 16384}, {cesm.Res8thDeg, 32768}}
	for _, sz := range sizes {
		for _, constrained := range []bool{true, false} {
			s := core.Spec{
				Resolution: sz.res, Layout: cesm.Layout1, TotalNodes: sz.nodes,
				Perf: truthPerf(sz.res), ConstrainOcean: constrained, ConstrainAtm: sz.res == cesm.Res1Deg,
			}
			t.Run(fmt.Sprintf("%v-%d-constrained=%v", sz.res, sz.nodes, constrained), func(t *testing.T) {
				m, vars, err := core.BuildModel(s)
				if err != nil {
					t.Fatal(err)
				}
				r, err := minlp.Solve(m, core.SolverOptions())
				if err != nil {
					t.Fatal(err)
				}
				if r.Status != minlp.Optimal {
					t.Fatalf("status %v", r.Status)
				}
				tj := func(c cesm.Component) float64 { return s.Perf[c].Eval(r.X[vars.N[c]]) }
				want := math.Max(math.Max(tj(cesm.ICE), tj(cesm.LND))+tj(cesm.ATM), tj(cesm.OCN))
				if rel := math.Abs(r.Obj-want) / want; rel > 1e-12 {
					t.Fatalf("obj %v, closed form %v at the returned allocation (rel err %.3g)", r.Obj, want, rel)
				}

				src, err := core.WriteAMPL(s)
				if err != nil {
					t.Fatal(err)
				}
				parsed, err := ampl.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				r, err = minlp.Solve(parsed.Model, core.SolverOptions())
				if err != nil {
					t.Fatal(err)
				}
				if r.Status != minlp.Optimal {
					t.Fatalf("AMPL: status %v", r.Status)
				}
			})
		}
	}
}

// minSumByEnumeration is the layout-1 MinSum optimum of a 1° spec by a
// literal enumeration of Table I: T_ice + T_lnd + T_atm + T_ocn over
// n_ice + n_lnd ≤ n_atm and n_atm + n_ocn ≤ N, with the spec's caps and
// allowed sets.
func minSumByEnumeration(s core.Spec) float64 {
	N := s.TotalNodes
	capAtm := min(N, cesm.AtmMaxNodes(s.Resolution))
	capOcn := min(N, cesm.OceanMaxNodes(s.Resolution))
	allowed := func(n, upper int, constrain bool, set []int) bool {
		if n > upper {
			return false
		}
		if !constrain {
			return true
		}
		for _, v := range set {
			if v == n {
				return true
			}
		}
		return false
	}
	T := func(c cesm.Component, n int) float64 { return s.Perf[c].Eval(float64(n)) }
	// iceLnd[k] = min over n_ice + n_lnd ≤ k of T_ice + T_lnd.
	minLnd := make([]float64, N+1)
	minLnd[0] = math.Inf(1)
	for k := 1; k <= N; k++ {
		minLnd[k] = math.Min(minLnd[k-1], T(cesm.LND, k))
	}
	iceLnd := make([]float64, N+1)
	for k := range iceLnd {
		iceLnd[k] = math.Inf(1)
		for ni := 1; ni < k; ni++ {
			iceLnd[k] = math.Min(iceLnd[k], T(cesm.ICE, ni)+minLnd[k-ni])
		}
	}
	best := math.Inf(1)
	for na := 1; na <= N; na++ {
		if !allowed(na, capAtm, s.ConstrainAtm, cesm.AtmSet(s.Resolution, 0)) {
			continue
		}
		ocn := math.Inf(1)
		for no := 1; no <= N-na; no++ {
			if allowed(no, capOcn, s.ConstrainOcean, cesm.OceanSet(s.Resolution)) {
				ocn = math.Min(ocn, T(cesm.OCN, no))
			}
		}
		best = math.Min(best, T(cesm.ATM, na)+ocn+iceLnd[na])
	}
	return best
}

// TestMinSumMatchesEnumeration holds outer approximation on the convex
// MinSum model to a literal enumeration, on the fitted 1° specs where it
// used to certify answers 0.06 %–40 % above the optimum: node LPs over
// badly scaled rows (selection-set weights in the hundreds, cuts with
// slopes near 1e6 per node) came back infeasible or non-optimal and
// pruned the optimum away. The answer must be within the solver's
// relative gap.
func TestMinSumMatchesEnumeration(t *testing.T) {
	for _, tc := range []struct {
		seed        int64
		nodes       int
		constrained bool
	}{{0, 256, true}, {0, 512, false}, {4, 128, true}, {7, 512, true}} {
		t.Run(fmt.Sprintf("seed%d-%d-constrained=%v", tc.seed, tc.nodes, tc.constrained), func(t *testing.T) {
			models, err := experiments.FitModels(cesm.Res1Deg, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			s := core.Spec{
				Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: tc.nodes, Perf: models,
				Objective: core.MinSum, ConstrainOcean: tc.constrained, ConstrainAtm: tc.constrained,
			}
			m, _, err := core.BuildModel(s)
			if err != nil {
				t.Fatal(err)
			}
			r, err := minlp.Solve(m, core.SolverOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := minSumByEnumeration(s)
			if r.Status != minlp.Optimal || (r.Obj-want)/want > core.SolverOptions().RelGap {
				t.Fatalf("status %v, obj %v; enumeration %v (%.3g above)", r.Status, r.Obj, want, (r.Obj-want)/want)
			}
		})
	}
}
