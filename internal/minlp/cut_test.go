package minlp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hslb/internal/expr"
	"hslb/internal/lp"
	"hslb/internal/model"
)

// linearizeCut is the cut of nonlinear row i at x taken from the expression
// tree: unitRow of expr.LinearizeAt's affine form, the reference cutAt's tape
// sweeps must reproduce bit for bit.
func linearizeCut(w *work, i int, x []float64) (lp.Constraint, bool) {
	aff := expr.LinearizeAt(w.nlCons[i].Body, x)
	coef := make([]float64, w.m.NumVars())
	scale := 0.0
	for j, c := range aff.Coef {
		coef[j] = c
		scale = math.Max(scale, math.Abs(c))
	}
	if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) ||
		math.IsInf(aff.Constant, 0) || math.IsNaN(aff.Constant) {
		return lp.Constraint{}, false
	}
	return unitRow(lp.Constraint{Coef: coef, Sense: lp.LE, RHS: -aff.Constant}), true
}

// sameRow reports whether two cuts are equal bit for bit.
func sameRow(a, b lp.Constraint) bool {
	if a.Sense != b.Sense || math.Float64bits(a.RHS) != math.Float64bits(b.RHS) || len(a.Coef) != len(b.Coef) {
		return false
	}
	for j := range a.Coef {
		if math.Float64bits(a.Coef[j]) != math.Float64bits(b.Coef[j]) {
			return false
		}
	}
	return true
}

// cutsMatchLinearizeAt prepares and presolves m as SolveContext does, then
// holds cutAt to linearizeCut on every nonlinear row at each tangent-pool
// point and at interior points of the box drawn from seed. It returns how
// many (row, point) pairs it compared.
func cutsMatchLinearizeAt(m *model.Model, seed int64, interior int) (int, error) {
	w, err := prepare(m)
	if err != nil {
		return 0, err
	}
	if ps := Presolve(w.m, feasTol); ps.Infeasible {
		return 0, fmt.Errorf("presolve proves the model infeasible")
	}
	n := w.m.NumVars()
	var points [][]float64
	for k := 0; k < poolPoints; k++ {
		x := make([]float64, n)
		w.poolPoint(k, x)
		points = append(points, x)
	}
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < interior; p++ {
		x := make([]float64, n)
		for j, v := range w.m.Vars {
			x[j] = math.Max(v.Lower, math.Min(v.Upper, 0))
			if !math.IsInf(v.Lower, 0) && !math.IsInf(v.Upper, 0) {
				x[j] = v.Lower + (v.Upper-v.Lower)*rng.Float64()
			}
		}
		points = append(points, x)
	}
	compared := 0
	for _, x := range points {
		for i := range w.nlCons {
			got, gotOK := w.cutAt(i, x)
			want, wantOK := linearizeCut(w, i, x)
			if gotOK != wantOK || (gotOK && !sameRow(got, want)) {
				return compared, fmt.Errorf("row %s at %v: tape cut %v (ok %v), tree cut %v (ok %v)",
					w.nlCons[i].Name, x, got, gotOK, want, wantOK)
			}
			compared++
		}
	}
	return compared, nil
}

func TestCutAtMatchesLinearizeAt(t *testing.T) {
	models := []*model.Model{miniHSLB(27180, 45, 9000, 12, 128)}
	// A row with a variable exponent, a log and a product of variables,
	// where the tape's gradient reaches every instruction kind.
	m := model.New()
	x := m.AddVar("x", model.Continuous, 0.5, 4)
	y := m.AddVar("y", model.Integer, 1, 9)
	m.AddConstraint("mixed", expr.Sum(expr.Pow{Base: y, Exponent: x}, expr.Prod(x, y),
		expr.Neg{Arg: expr.Log{Arg: x}}, expr.Exp{Arg: expr.Scale(0.1, y)}), model.LE, 100)
	m.AddConstraint("floor", expr.Div{Num: expr.C(8), Den: y}, model.GE, 1)
	m.SetObjective(expr.Sum(x, y), model.Maximize)
	models = append(models, m)
	for _, m := range models {
		if n, err := cutsMatchLinearizeAt(m, 1, 16); err != nil {
			t.Fatal(err)
		} else if n == 0 {
			t.Fatal("no cuts compared")
		}
	}
}
