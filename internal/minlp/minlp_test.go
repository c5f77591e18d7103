package minlp

import (
	"math"
	"math/rand"
	"strings"
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

func solveWith(t *testing.T, m *model.Model, opt Options) *Result {
	t.Helper()
	r, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal {
		t.Fatalf("alg=%v status = %v, want optimal", opt.Algorithm, r.Status)
	}
	return r
}

// miniHSLB builds a two-component min-max allocation model:
// min T s.t. T >= a1/n1 + d1, T >= a2/n2 + d2, n1 + n2 <= N, n integer >= 1.
func miniHSLB(a1, d1, a2, d2 float64, nTotal int) *model.Model {
	m := model.New()
	T := m.AddVar("T", model.Continuous, 0, 1e9)
	n1 := m.AddVar("n1", model.Integer, 1, float64(nTotal))
	n2 := m.AddVar("n2", model.Integer, 1, float64(nTotal))
	t1 := expr.Sum(expr.Div{Num: expr.C(a1), Den: n1}, expr.C(d1))
	t2 := expr.Sum(expr.Div{Num: expr.C(a2), Den: n2}, expr.C(d2))
	m.AddConstraint("T1", expr.Sub(t1, T), model.LE, 0)
	m.AddConstraint("T2", expr.Sub(t2, T), model.LE, 0)
	m.AddConstraint("cap", expr.Sum(n1, n2), model.LE, float64(nTotal))
	m.SetObjective(T, model.Minimize)
	return m
}

// bruteMiniHSLB enumerates all integer allocations.
func bruteMiniHSLB(a1, d1, a2, d2 float64, nTotal int) (float64, int, int) {
	best := math.Inf(1)
	bn1, bn2 := 0, 0
	for n1 := 1; n1 < nTotal; n1++ {
		for n2 := 1; n1+n2 <= nTotal; n2++ {
			t := math.Max(a1/float64(n1)+d1, a2/float64(n2)+d2)
			if t < best {
				best, bn1, bn2 = t, n1, n2
			}
		}
	}
	return best, bn1, bn2
}

func TestMiniHSLBBothAlgorithms(t *testing.T) {
	a1, d1, a2, d2 := 100.0, 5.0, 80.0, 3.0
	N := 30
	want, _, _ := bruteMiniHSLB(a1, d1, a2, d2, N)
	m := miniHSLB(a1, d1, a2, d2, N)
	r := solveWith(t, m, Options{})
	if !approxEq(r.Obj, want, 1e-3) {
		t.Errorf("obj = %v, want %v (X=%v)", r.Obj, want, r.X)
	}
	if !m.IsFeasible(r.X, 1e-4) {
		t.Errorf("infeasible solution %v", r.X)
	}
}

func TestMiniHSLBRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a1 := 50 + rng.Float64()*400
		a2 := 50 + rng.Float64()*400
		d1 := rng.Float64() * 10
		d2 := rng.Float64() * 10
		N := 8 + rng.Intn(40)
		want, _, _ := bruteMiniHSLB(a1, d1, a2, d2, N)
		m := miniHSLB(a1, d1, a2, d2, N)
		r, err := Solve(m, Options{Algorithm: OuterApprox})
		if err != nil || r.Status != Optimal {
			return false
		}
		return approxEq(r.Obj, want, 5e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionSetMINLP(t *testing.T) {
	// min T with T >= 1000/n + 10, n restricted to an allowed set.
	// Larger n is always better here, so the optimum picks 768.
	m := model.New()
	T := m.AddVar("T", model.Continuous, 0, 1e9)
	n := m.AddVar("n", model.Integer, 1, 1000)
	m.AddSelectionSet("ocn", n, []float64{2, 4, 24, 96, 480, 768})
	m.AddConstraint("perf", expr.Sub(expr.Sum(expr.Div{Num: expr.C(1000), Den: n}, expr.C(10)), T), model.LE, 0)
	m.SetObjective(T, model.Minimize)
	for _, sos := range []bool{false, true} {
		r := solveWith(t, m, Options{Algorithm: OuterApprox, BranchSOS: sos})
		if math.Round(r.X[n.Index]) != 768 {
			t.Errorf("sos=%v n = %v, want 768", sos, r.X[n.Index])
		}
		if !approxEq(r.Obj, 1000.0/768+10, 1e-4) {
			t.Errorf("sos=%v obj = %v", sos, r.Obj)
		}
	}
}

func TestSelectionWithCapacityTradeoff(t *testing.T) {
	// Two components share N=100 nodes; one draws from an allowed set.
	// Exhaustive check over the set values.
	aA, dA := 2000.0, 2.0
	aB, dB := 1500.0, 1.0
	set := []float64{8, 16, 32, 64, 80}
	N := 100.0
	best := math.Inf(1)
	for _, nb := range set {
		na := N - nb
		if na < 1 {
			continue
		}
		// continuous na would be optimal at integer here; enumerate ints
		for v := 1.0; v <= na; v++ {
			tt := math.Max(aA/v+dA, aB/nb+dB)
			if tt < best {
				best = tt
			}
		}
	}
	m := model.New()
	T := m.AddVar("T", model.Continuous, 0, 1e9)
	na := m.AddVar("na", model.Integer, 1, 99)
	nb := m.AddVar("nb", model.Integer, 1, 99)
	m.AddSelectionSet("bset", nb, set)
	m.AddConstraint("TA", expr.Sub(expr.Sum(expr.Div{Num: expr.C(aA), Den: na}, expr.C(dA)), T), model.LE, 0)
	m.AddConstraint("TB", expr.Sub(expr.Sum(expr.Div{Num: expr.C(aB), Den: nb}, expr.C(dB)), T), model.LE, 0)
	m.AddConstraint("cap", expr.Sum(na, nb), model.LE, N)
	m.SetObjective(T, model.Minimize)
	r := solveWith(t, m, Options{Algorithm: OuterApprox, BranchSOS: true})
	if !approxEq(r.Obj, best, 1e-3) {
		t.Fatalf("obj = %v, want %v (X=%v)", r.Obj, best, r.X)
	}
}

func TestPureMILPPassesThrough(t *testing.T) {
	// A linear model must still solve (no nonlinear constraints at all).
	m := model.New()
	x := m.AddVar("x", model.Integer, 0, 10)
	y := m.AddVar("y", model.Integer, 0, 10)
	m.AddConstraint("c", expr.Sum(expr.Scale(2, x), expr.Scale(3, y)), model.LE, 12)
	m.SetObjective(expr.Sum(x, expr.Scale(2, y)), model.Maximize)
	r := solveWith(t, m, Options{Algorithm: OuterApprox})
	if !approxEq(r.Obj, 8, 1e-5) {
		t.Fatalf("obj = %v, want 8", r.Obj)
	}
}

func TestNonlinearObjectiveEpigraph(t *testing.T) {
	// min (x-2.6)² with x integer in [0,10] → x=3, obj 0.16.
	m := model.New()
	x := m.AddVar("x", model.Integer, 0, 10)
	m.SetObjective(expr.Pow{Base: expr.Sub(x, expr.C(2.6)), Exponent: expr.C(2)}, model.Minimize)
	r := solveWith(t, m, Options{})
	if math.Round(r.X[0]) != 3 {
		t.Errorf("x = %v, want 3", r.X[0])
	}
	if !approxEq(r.Obj, 0.16, 1e-3) {
		t.Errorf("obj = %v, want 0.16", r.Obj)
	}
}

func TestMaximizeNonlinear(t *testing.T) {
	// max -(x-3.4)² → x=3, obj -0.16.
	m := model.New()
	x := m.AddVar("x", model.Integer, 0, 10)
	m.SetObjective(expr.Neg{Arg: expr.Pow{Base: expr.Sub(x, expr.C(3.4)), Exponent: expr.C(2)}}, model.Maximize)
	r := solveWith(t, m, Options{Algorithm: OuterApprox})
	if math.Round(r.X[0]) != 3 {
		t.Fatalf("x = %v, want 3", r.X[0])
	}
	if !approxEq(r.Obj, -0.16, 1e-3) {
		t.Fatalf("obj = %v, want -0.16", r.Obj)
	}
}

func TestInfeasibleMINLP(t *testing.T) {
	// 100/n <= 1 forces n >= 100, but n <= 10.
	m := model.New()
	n := m.AddVar("n", model.Integer, 1, 10)
	m.AddConstraint("perf", expr.Div{Num: expr.C(100), Den: n}, model.LE, 1)
	m.SetObjective(n, model.Minimize)
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", r.Status)
	}
}

func TestNonlinearEqualityRejected(t *testing.T) {
	m := model.New()
	x := m.AddVar("x", model.Continuous, 0.1, 10)
	y := m.AddVar("y", model.Integer, 1, 10)
	m.AddConstraint("eq", expr.Prod(x, y), model.EQ, 4)
	m.SetObjective(x, model.Minimize)
	if _, err := Solve(m, Options{}); err == nil {
		t.Fatal("nonlinear equality accepted")
	}
}

// TestUnboundedNonlinearVariableRejected: the tangent pool and the Kelley
// rounds need a finite box for every variable under a nonlinear operator,
// so a model without one is an error that names the variable; an unbounded
// variable that appears only linearly is fine.
func TestUnboundedNonlinearVariableRejected(t *testing.T) {
	m := model.New()
	T := m.AddVar("T", model.Continuous, math.Inf(-1), math.Inf(1))
	y := m.AddVar("y", model.Continuous, 1, math.Inf(1))
	n := m.AddVar("n", model.Integer, 1, 8)
	m.AddConstraint("time", expr.Sub(expr.Sum(expr.Div{Num: expr.C(40), Den: n}, expr.Div{Num: expr.C(9), Den: y}), T), model.LE, 0)
	m.SetObjective(T, model.Minimize)
	if _, err := Solve(m, Options{}); err == nil || !strings.Contains(err.Error(), `"y"`) {
		t.Fatalf("err %v; want one that names y", err)
	}
	m.Vars[y.Index].Upper = 3
	r := solveWith(t, m, Options{})
	if want := 40.0/8 + 3; !approxEq(r.Obj, want, 1e-6) {
		t.Fatalf("obj %v, want %v", r.Obj, want)
	}
}

func TestSOSBranchingFewerNodes(t *testing.T) {
	// With a large allowed set, SOS branching should need no more nodes
	// than individual-binary branching (the paper's 100× claim is about
	// exactly this effect at scale).
	set := make([]float64, 60)
	for i := range set {
		set[i] = float64(2 + 4*i)
	}
	build := func() *model.Model {
		m := model.New()
		T := m.AddVar("T", model.Continuous, 0, 1e9)
		n := m.AddVar("n", model.Integer, 1, 300)
		no := m.AddVar("no", model.Integer, 1, 300)
		m.AddSelectionSet("set", no, set)
		m.AddConstraint("T1", expr.Sub(expr.Sum(expr.Div{Num: expr.C(5000), Den: n}, expr.C(4)), T), model.LE, 0)
		m.AddConstraint("T2", expr.Sub(expr.Sum(expr.Div{Num: expr.C(3000), Den: no}, expr.C(2)), T), model.LE, 0)
		m.AddConstraint("cap", expr.Sum(n, no), model.LE, 300)
		m.SetObjective(T, model.Minimize)
		return m
	}
	rBin := solveWith(t, build(), Options{Algorithm: OuterApprox, BranchSOS: false})
	rSOS := solveWith(t, build(), Options{Algorithm: OuterApprox, BranchSOS: true})
	if !approxEq(rBin.Obj, rSOS.Obj, 1e-3) {
		t.Fatalf("objectives differ: %v vs %v", rBin.Obj, rSOS.Obj)
	}
	if rSOS.Nodes > rBin.Nodes {
		t.Logf("warning: SOS used more nodes (%d vs %d)", rSOS.Nodes, rBin.Nodes)
	}
	t.Logf("nodes: binary=%d sos=%d", rBin.Nodes, rSOS.Nodes)
}

func TestResultCounters(t *testing.T) {
	m := miniHSLB(100, 5, 80, 3, 20)
	r := solveWith(t, m, Options{Algorithm: OuterApprox})
	if r.Nodes <= 0 {
		t.Error("no nodes counted")
	}
	if r.NLPSolves <= 0 {
		t.Error("no NLP solves counted")
	}
	if r.Cuts <= 0 {
		t.Error("no OA cuts counted")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if OuterApprox.String() != "lp/nlp-bb" || NLPBB.String() != "nlp-bb" {
		t.Error("algorithm strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || NodeLimit.String() != "node-limit" {
		t.Error("status strings wrong")
	}
}

// TestSolveRejectsOtherAlgorithms: outer approximation is the one tree
// search; any other Algorithm value is an error that names the solver,
// not a silent fallback.
func TestSolveRejectsOtherAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{NLPBB, Algorithm(7)} {
		r, err := Solve(miniHSLB(100, 5, 80, 3, 20), Options{Algorithm: alg})
		if err == nil || r != nil || !strings.Contains(err.Error(), OuterApprox.String()) {
			t.Fatalf("%v: result %+v, err %v; want an error naming %v", alg, r, err, OuterApprox)
		}
	}
}
