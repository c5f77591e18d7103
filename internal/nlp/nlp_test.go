package nlp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hslb/internal/expr"
	"hslb/internal/model"
)

func approxEq(a, b, eps float64) bool {
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	return d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

func solveOK(t *testing.T, m *model.Model, x0 []float64) *Result {
	t.Helper()
	r, err := Solve(m, x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal {
		t.Fatalf("status = %v (feasErr %g), want optimal", r.Status, r.FeasErr)
	}
	return r
}

func TestUnconstrainedQuadratic(t *testing.T) {
	// min (x-3)² + (y+1)² → (3, -1).
	m := model.New()
	x := m.AddVar("x", model.Continuous, -10, 10)
	y := m.AddVar("y", model.Continuous, -10, 10)
	f := expr.Sum(
		expr.Pow{Base: expr.Sub(x, expr.C(3)), Exponent: expr.C(2)},
		expr.Pow{Base: expr.Sum(y, expr.C(1)), Exponent: expr.C(2)},
	)
	m.SetObjective(f, model.Minimize)
	r := solveOK(t, m, nil)
	if !approxEq(r.X[0], 3, 1e-4) || !approxEq(r.X[1], -1, 1e-4) {
		t.Fatalf("X = %v, want (3,-1)", r.X)
	}
}

func TestBoundActiveAtOptimum(t *testing.T) {
	// min (x-5)² with x <= 2 → x = 2.
	m := model.New()
	x := m.AddVar("x", model.Continuous, 0, 2)
	m.SetObjective(expr.Pow{Base: expr.Sub(x, expr.C(5)), Exponent: expr.C(2)}, model.Minimize)
	r := solveOK(t, m, nil)
	if !approxEq(r.X[0], 2, 1e-6) {
		t.Fatalf("X = %v, want 2", r.X)
	}
}

func TestLinearEqualityConstraint(t *testing.T) {
	// min x² + y² s.t. x + y = 2 → (1, 1).
	m := model.New()
	x := m.AddVar("x", model.Continuous, -10, 10)
	y := m.AddVar("y", model.Continuous, -10, 10)
	m.AddConstraint("sum", expr.Sum(x, y), model.EQ, 2)
	m.SetObjective(expr.Sum(
		expr.Pow{Base: x, Exponent: expr.C(2)},
		expr.Pow{Base: y, Exponent: expr.C(2)},
	), model.Minimize)
	r := solveOK(t, m, nil)
	if !approxEq(r.X[0], 1, 1e-3) || !approxEq(r.X[1], 1, 1e-3) {
		t.Fatalf("X = %v, want (1,1)", r.X)
	}
}

func TestInequalityConstraintActive(t *testing.T) {
	// min x + y s.t. x*y >= 4, x,y in [0.1, 10] → x=y=2, obj 4.
	m := model.New()
	x := m.AddVar("x", model.Continuous, 0.1, 10)
	y := m.AddVar("y", model.Continuous, 0.1, 10)
	m.AddConstraint("prod", expr.Prod(x, y), model.GE, 4)
	m.SetObjective(expr.Sum(x, y), model.Minimize)
	r := solveOK(t, m, []float64{3, 3})
	if !approxEq(r.Obj, 4, 1e-3) {
		t.Fatalf("obj = %v, want 4 (X=%v)", r.Obj, r.X)
	}
}

func TestHSLBShapeMinMax(t *testing.T) {
	// The core HSLB layout-1 structure in miniature:
	// min T s.t. T >= 100/na + 5, T >= 80/no + 3, na + no <= 30.
	// At the optimum both component times should be balanced (T equal).
	m := model.New()
	T := m.AddVar("T", model.Continuous, 0, 1000)
	na := m.AddVar("na", model.Continuous, 1, 30)
	no := m.AddVar("no", model.Continuous, 1, 30)
	ta := expr.Sum(expr.Div{Num: expr.C(100), Den: na}, expr.C(5))
	to := expr.Sum(expr.Div{Num: expr.C(80), Den: no}, expr.C(3))
	m.AddConstraint("Ta", expr.Sub(ta, T), model.LE, 0)
	m.AddConstraint("To", expr.Sub(to, T), model.LE, 0)
	m.AddConstraint("cap", expr.Sum(na, no), model.LE, 30)
	m.SetObjective(T, model.Minimize)
	r := solveOK(t, m, []float64{50, 15, 15})
	// Optimal allocation balances: 100/na+5 = 80/no+3 with na+no = 30.
	taV := 100/r.X[1] + 5
	toV := 80/r.X[2] + 3
	if !approxEq(taV, toV, 2e-2) {
		t.Fatalf("not balanced: Ta=%v To=%v (X=%v)", taV, toV, r.X)
	}
	if !approxEq(r.X[1]+r.X[2], 30, 1e-3) {
		t.Fatalf("capacity not tight: %v", r.X)
	}
	if r.Obj < math.Max(taV, toV)-1e-4 {
		t.Fatalf("T below max component time")
	}
}

func TestInfeasibleDetected(t *testing.T) {
	// x <= 1 by bound, x >= 3 by constraint.
	m := model.New()
	x := m.AddVar("x", model.Continuous, 0, 1)
	m.AddConstraint("ge", x, model.GE, 3)
	m.SetObjective(x, model.Minimize)
	r, err := Solve(m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status == Optimal {
		t.Fatalf("infeasible problem reported optimal (feasErr %g)", r.FeasErr)
	}
}

func TestMaximizeSense(t *testing.T) {
	// max -(x-2)² + 10 → x=2, obj 10.
	m := model.New()
	x := m.AddVar("x", model.Continuous, -10, 10)
	m.SetObjective(expr.Sum(
		expr.Neg{Arg: expr.Pow{Base: expr.Sub(x, expr.C(2)), Exponent: expr.C(2)}},
		expr.C(10),
	), model.Maximize)
	r := solveOK(t, m, nil)
	if !approxEq(r.X[0], 2, 1e-4) || !approxEq(r.Obj, 10, 1e-6) {
		t.Fatalf("X = %v obj = %v", r.X, r.Obj)
	}
}

func TestBadStartRejected(t *testing.T) {
	m := model.New()
	m.AddVar("x", model.Continuous, 0, 1)
	m.SetObjective(expr.X(0), model.Minimize)
	if _, err := Solve(m, []float64{1, 2, 3}, Options{}); err == nil {
		t.Fatal("wrong-dimension start accepted")
	}
}

func TestRandomConvexQuadraticsProperty(t *testing.T) {
	// min Σ w_i (x_i - t_i)² over a box: solution must be the box-clamped
	// target, for random weights, targets and boxes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := model.New()
		targets := make([]float64, n)
		lowers := make([]float64, n)
		uppers := make([]float64, n)
		terms := make([]expr.Expr, n)
		for i := 0; i < n; i++ {
			lowers[i] = rng.Float64()*4 - 2
			uppers[i] = lowers[i] + 0.5 + rng.Float64()*4
			targets[i] = rng.Float64()*8 - 4
			v := m.AddVar("x", model.Continuous, lowers[i], uppers[i])
			w := 0.5 + rng.Float64()*3
			terms[i] = expr.Scale(w, expr.Pow{Base: expr.Sub(v, expr.C(targets[i])), Exponent: expr.C(2)})
		}
		m.SetObjective(expr.Sum(terms...), model.Minimize)
		r, err := Solve(m, nil, Options{})
		if err != nil || r.Status != Optimal {
			return false
		}
		for i := 0; i < n; i++ {
			want := math.Min(uppers[i], math.Max(lowers[i], targets[i]))
			if !approxEq(r.X[i], want, 1e-3) && math.Abs(r.X[i]-want) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestResultFeasErrReported(t *testing.T) {
	m := model.New()
	x := m.AddVar("x", model.Continuous, 0, 10)
	m.AddConstraint("c", x, model.GE, 2)
	m.SetObjective(x, model.Minimize)
	r := solveOK(t, m, nil)
	if r.FeasErr > 1e-6 {
		t.Fatalf("FeasErr = %g", r.FeasErr)
	}
	if !approxEq(r.X[0], 2, 1e-4) {
		t.Fatalf("X = %v, want 2", r.X)
	}
}

// TestProblemSweepFollowsThePoint: the reverse sweeps after sweep(x) are the
// gradient at x whatever point was swept before, down to the sign of a zero
// (1/x at +0 and −0 differ). The reference is the closed-form gradient of
// the body 1/x + x·y, (−1/x² + y, x). The tape matches it bit for bit at the
// five points, −Inf at x = ±0 included, but for ∂/∂y at x = −0: the tape
// gives +0 where the closed form gives −0, which compare equal.
func TestProblemSweepFollowsThePoint(t *testing.T) {
	m := model.New()
	x := m.AddVar("x", model.Continuous, -1, 1)
	y := m.AddVar("y", model.Continuous, -1, 1)
	m.AddConstraint("c", expr.Sum(expr.Div{Num: expr.C(1), Den: x}, expr.Prod(x, y)), model.GE, 0)
	p := newProblem(m)
	for _, pt := range [][]float64{{0.5, 2}, {0.5, 2}, {0.25, -1}, {0, 1}, {math.Copysign(0, -1), 1}} {
		p.sweep(pt)
		body := m.Cons[0].Body
		if want := -body.Eval(pt); p.v[0] != want {
			t.Fatalf("at %v: value %v, want %v", pt, p.v[0], want)
		}
		want := []float64{-1/(pt[0]*pt[0]) + pt[1], pt[0]}
		g := make([]float64, 2)
		p.cons[0].scatter(-1, g)
		if g[0] != want[0] || g[1] != want[1] {
			t.Fatalf("at %v: gradient %v, want %v", pt, g, want)
		}
	}
}
