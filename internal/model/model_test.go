package model

import (
	"math"
	"testing"

	"hslb/internal/expr"
)

func buildSmall(t *testing.T) (*Model, expr.Var, expr.Var) {
	t.Helper()
	m := New()
	x := m.AddVar("x", Continuous, 0, 10)
	y := m.AddVar("y", Integer, 0, 5)
	m.AddConstraint("cap", expr.Sum(x, y), LE, 8)
	m.SetObjective(expr.Sum(x, expr.Scale(2, y)), Maximize)
	return m, x, y
}

func TestAddVarIndices(t *testing.T) {
	m, x, y := buildSmall(t)
	if x.Index != 0 || y.Index != 1 {
		t.Fatalf("indices = %d,%d", x.Index, y.Index)
	}
	if m.NumVars() != 2 {
		t.Fatalf("NumVars = %d", m.NumVars())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryBoundsForced(t *testing.T) {
	m := New()
	z := m.AddVar("z", Binary, -3, 7)
	v := m.Vars[z.Index]
	if v.Lower != 0 || v.Upper != 1 {
		t.Fatalf("binary bounds = [%g,%g], want [0,1]", v.Lower, v.Upper)
	}
}

func TestIntegerVars(t *testing.T) {
	m, _, y := buildSmall(t)
	got := m.IntegerVars()
	if len(got) != 1 || got[0] != y.Index {
		t.Fatalf("IntegerVars = %v", got)
	}
}

func TestConstraintViolation(t *testing.T) {
	c := Constraint{Body: expr.X(0), Sense: LE, RHS: 5}
	if v := c.Violation([]float64{4}); v != 0 {
		t.Errorf("satisfied LE violation = %v", v)
	}
	if v := c.Violation([]float64{7}); v != 2 {
		t.Errorf("LE violation = %v, want 2", v)
	}
	c.Sense = GE
	if v := c.Violation([]float64{4}); v != 1 {
		t.Errorf("GE violation = %v, want 1", v)
	}
	c.Sense = EQ
	if v := c.Violation([]float64{4}); v != 1 {
		t.Errorf("EQ violation = %v, want 1", v)
	}
}

func TestFeasibility(t *testing.T) {
	m, _, _ := buildSmall(t)
	if !m.IsFeasible([]float64{3, 2}, 1e-9) {
		t.Error("feasible point rejected")
	}
	if m.IsFeasible([]float64{7, 2}, 1e-9) {
		t.Error("capacity violation accepted")
	}
	if m.IsFeasible([]float64{3, 2.5}, 1e-9) {
		t.Error("fractional integer accepted")
	}
	if m.IsFeasible([]float64{-1, 2}, 1e-9) {
		t.Error("bound violation accepted")
	}
}

func TestRelaxMakesContinuous(t *testing.T) {
	m, _, _ := buildSmall(t)
	r := m.Relax()
	if len(r.IntegerVars()) != 0 {
		t.Fatal("relaxation still has integer vars")
	}
	if len(m.IntegerVars()) != 1 {
		t.Fatal("original model mutated by Relax")
	}
	if !r.IsFeasible([]float64{3, 2.5}, 1e-9) {
		t.Error("relaxation should accept fractional values")
	}
}

func TestFixVar(t *testing.T) {
	m, _, y := buildSmall(t)
	m.FixVar(y.Index, 3)
	if m.Vars[y.Index].Lower != 3 || m.Vars[y.Index].Upper != 3 {
		t.Fatal("FixVar did not pin bounds")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m, _, y := buildSmall(t)
	c := m.Clone()
	c.FixVar(y.Index, 4)
	c.AddConstraint("extra", expr.X(0), LE, 1)
	if m.Vars[y.Index].Upper == 4 {
		t.Error("Clone shares Vars")
	}
	if len(m.Cons) == len(c.Cons) {
		t.Error("Clone shares Cons")
	}
}

func TestAddSelectionSet(t *testing.T) {
	m := New()
	n := m.AddVar("n_ocn", Integer, 1, 1000)
	values := []float64{2, 4, 480, 768}
	idx := m.AddSelectionSet("ocnset", n, values)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	s := m.SOS[idx]
	if s.Target != n.Index || len(s.Selectors) != 4 {
		t.Fatalf("SOS = %+v", s)
	}
	// Choosing z2=1 must force n=480 for feasibility.
	x := make([]float64, m.NumVars())
	x[n.Index] = 480
	x[s.Selectors[2]] = 1
	if !m.IsFeasible(x, 1e-9) {
		t.Error("valid selection rejected")
	}
	x[n.Index] = 100 // inconsistent link
	if m.IsFeasible(x, 1e-9) {
		t.Error("broken link accepted")
	}
	x[n.Index] = 480
	x[s.Selectors[0]] = 1 // two selectors set
	if m.IsFeasible(x, 1e-9) {
		t.Error("double selection accepted")
	}
}

func TestIsMILP(t *testing.T) {
	m, x, _ := buildSmall(t)
	if !m.IsMILP() {
		t.Error("linear model not recognized as MILP")
	}
	m.AddConstraint("nl", expr.Div{Num: expr.C(1), Den: x}, LE, 10)
	if m.IsMILP() {
		t.Error("nonlinear model classified as MILP")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	m := New()
	m.AddVar("x", Continuous, 0, 1)
	m.AddConstraint("bad", expr.X(5), LE, 1)
	if err := m.Validate(); err == nil {
		t.Error("undeclared variable not caught")
	}

	m2 := New()
	m2.AddVar("x", Integer, 0, math.Inf(1))
	if err := m2.Validate(); err == nil {
		t.Error("unbounded integer not caught")
	}

	m3 := New()
	m3.Vars = append(m3.Vars, Variable{Index: 0, Name: "x", Lower: 2, Upper: 1})
	if err := m3.Validate(); err == nil {
		t.Error("empty bound interval not caught")
	}

	m4 := New()
	v := m4.AddVar("n", Integer, 0, 10)
	m4.SOS = append(m4.SOS, SOS1{Name: "s", Target: v.Index, Selectors: []int{v.Index}, Weights: []float64{1}})
	if err := m4.Validate(); err == nil {
		t.Error("out-of-[0,1] SOS selector not caught")
	}
}

func TestValidateChecksSOSRows(t *testing.T) {
	build := func() *Model {
		m := New()
		n := m.AddVar("n", Integer, 1, 4)
		m.AddSelectionSet("s", n, []float64{1, 4})
		m.AddConstraint("cap", n, LE, 3)
		return m
	}
	if err := build().Validate(); err != nil {
		t.Fatalf("AddSelectionSet model invalid: %v", err)
	}
	m := build()
	m.SOS[0].LinkCon = len(m.Cons)
	if err := m.Validate(); err == nil {
		t.Error("out-of-range link row not caught")
	}
	m = build()
	m.SOS[0].Pick1Con = len(m.Cons) - 1 // the LE capacity row
	if err := m.Validate(); err == nil {
		t.Error("inequality pick row not caught")
	}
	m = build()
	m.SOS[0].Pick1Con, m.SOS[0].LinkCon = 0, 0
	if err := m.Validate(); err != nil {
		t.Errorf("unset rows rejected: %v", err)
	}
}

func TestObjValue(t *testing.T) {
	m, _, _ := buildSmall(t)
	if got := m.ObjValue([]float64{3, 2}); got != 7 {
		t.Fatalf("ObjValue = %v, want 7", got)
	}
}

func TestSenseStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Error("sense strings wrong")
	}
	if Continuous.String() != "continuous" || Binary.String() != "binary" {
		t.Error("var type strings wrong")
	}
}
