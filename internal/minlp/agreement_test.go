package minlp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hslb/internal/expr"
	"hslb/internal/model"
)

// TestAlgorithmsAgreeOnRandomConvexMINLP checks that outer approximation
// certifies the enumerated optimum on random convex min-max allocation
// instances.
func TestAlgorithmsAgreeOnRandomConvexMINLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(2) // components
		N := 10 + rng.Intn(30)
		m := model.New()
		T := m.AddVar("T", model.Continuous, 0, 1e9)
		vars := make([]expr.Var, k)
		capTerms := make([]expr.Expr, k)
		a, d := make([]float64, k), make([]float64, k)
		for i := 0; i < k; i++ {
			vars[i] = m.AddVar("n", model.Integer, 1, float64(N))
			capTerms[i] = vars[i]
			a[i] = 20 + rng.Float64()*300
			d[i] = rng.Float64() * 10
			body := expr.Sub(expr.Sum(expr.Div{Num: expr.C(a[i]), Den: vars[i]}, expr.C(d[i])), T)
			m.AddConstraint("t", body, model.LE, 0)
		}
		m.AddConstraint("cap", expr.Sum(capTerms...), model.LE, float64(N))
		m.SetObjective(T, model.Minimize)

		// Every allocation with n_i ≥ 1 and Σ n_i ≤ N, enumerated.
		want := math.Inf(1)
		var enumerate func(i, left int, worst float64)
		enumerate = func(i, left int, worst float64) {
			if i == k {
				want = math.Min(want, worst)
				return
			}
			for n := 1; n <= left-(k-1-i); n++ {
				enumerate(i+1, left-n, math.Max(worst, a[i]/float64(n)+d[i]))
			}
		}
		enumerate(0, N, 0)

		oa, err := Solve(m, Options{})
		if err != nil || oa.Status != Optimal {
			// k << N always, so demand optimality.
			return false
		}
		return math.Abs(oa.Obj-want) <= 1e-3*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestOASolutionAlwaysFeasible: whatever instance we throw at it, an
// Optimal answer must satisfy the model.
func TestOASolutionAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := model.New()
		T := m.AddVar("T", model.Continuous, 0, 1e9)
		n1 := m.AddVar("n1", model.Integer, 1, 50)
		n2 := m.AddVar("n2", model.Integer, 1, 50)
		a1 := 10 + rng.Float64()*500
		a2 := 10 + rng.Float64()*500
		m.AddConstraint("t1", expr.Sub(expr.Div{Num: expr.C(a1), Den: n1}, T), model.LE, 0)
		m.AddConstraint("t2", expr.Sub(expr.Div{Num: expr.C(a2), Den: n2}, T), model.LE, 0)
		cap := float64(4 + rng.Intn(60))
		m.AddConstraint("cap", expr.Sum(n1, n2), model.LE, cap)
		m.SetObjective(T, model.Minimize)
		r, err := Solve(m, Options{Algorithm: OuterApprox})
		if err != nil {
			return false
		}
		switch r.Status {
		case Optimal:
			return m.IsFeasible(r.X, 1e-4)
		case Infeasible:
			return cap < 2 // only possible when even (1,1) does not fit
		default:
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
