package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, eps float64) bool {
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*m
}

// perfModel builds the Table II performance function
// T(n) = a/n + b*n^c + d over x = [a, b, c, d, n].
func perfModel() Expr {
	a, b, c, d, n := X(0), X(1), X(2), X(3), X(4)
	return Sum(
		Div{Num: a, Den: n},
		Prod(b, Pow{Base: n, Exponent: c}),
		d,
	)
}

func TestEvalBasics(t *testing.T) {
	e := Sum(C(2), Prod(C(3), X(0)), Neg{Arg: X(1)})
	got := e.Eval([]float64{4, 5})
	if got != 2+12-5 {
		t.Fatalf("Eval = %v, want 9", got)
	}
}

func TestEvalPerfModel(t *testing.T) {
	e := perfModel()
	// T = 100/10 + 0.5*10^1 + 7 = 10 + 5 + 7 = 22.
	got := e.Eval([]float64{100, 0.5, 1, 7, 10})
	if !approxEq(got, 22, 1e-12) {
		t.Fatalf("Eval = %v, want 22", got)
	}
}

func TestEvalDivPowLogExp(t *testing.T) {
	x := []float64{2, 8}
	if got := (Div{Num: X(1), Den: X(0)}).Eval(x); got != 4 {
		t.Errorf("Div = %v", got)
	}
	if got := (Pow{Base: X(0), Exponent: C(3)}).Eval(x); got != 8 {
		t.Errorf("Pow = %v", got)
	}
	if got := (Log{Arg: X(1)}).Eval(x); !approxEq(got, math.Log(8), 1e-12) {
		t.Errorf("Log = %v", got)
	}
	if got := (Exp{Arg: X(0)}).Eval(x); !approxEq(got, math.E*math.E, 1e-12) {
		t.Errorf("Exp = %v", got)
	}
}

func TestSumProdFlatten(t *testing.T) {
	e := Sum(Sum(X(0), X(1)), X(2))
	if a, ok := e.(Add); !ok || len(a.Terms) != 3 {
		t.Fatalf("Sum did not flatten: %v", e)
	}
	p := Prod(Prod(X(0), X(1)), X(2))
	if m, ok := p.(Mul); !ok || len(m.Factors) != 3 {
		t.Fatalf("Prod did not flatten: %v", p)
	}
}

func TestSumEmptyAndSingle(t *testing.T) {
	if got := Sum().Eval(nil); got != 0 {
		t.Errorf("empty Sum = %v", got)
	}
	if got := Prod().Eval(nil); got != 1 {
		t.Errorf("empty Prod = %v", got)
	}
	if _, ok := Sum(X(0)).(Var); !ok {
		t.Error("single-term Sum should unwrap")
	}
}

func TestVarsAndMaxIndex(t *testing.T) {
	e := perfModel()
	got := Vars(e)
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
	if MaxVarIndex(e) != 4 {
		t.Fatalf("MaxVarIndex = %d", MaxVarIndex(e))
	}
	if MaxVarIndex(C(1)) != -1 {
		t.Fatal("MaxVarIndex of const should be -1")
	}
}

func TestDiffPolynomial(t *testing.T) {
	// f = 3x² + 2x + 1 → f' = 6x + 2.
	x0 := X(0)
	f := Sum(Scale(3, Pow{Base: x0, Exponent: C(2)}), Scale(2, x0), C(1))
	df := Diff(f, 0)
	for _, xv := range []float64{-2, 0, 1, 3.5} {
		want := 6*xv + 2
		if got := df.Eval([]float64{xv}); !approxEq(got, want, 1e-12) {
			t.Fatalf("df(%v) = %v, want %v", xv, got, want)
		}
	}
}

func TestDiffQuotientRule(t *testing.T) {
	// f = x0/x1 → ∂f/∂x1 = -x0/x1².
	f := Div{Num: X(0), Den: X(1)}
	df := Diff(f, 1)
	x := []float64{6, 2}
	if got := df.Eval(x); !approxEq(got, -1.5, 1e-12) {
		t.Fatalf("df = %v, want -1.5", got)
	}
}

func TestDiffVariableExponent(t *testing.T) {
	// f = n^c; ∂f/∂c = n^c * log n.
	f := Pow{Base: X(0), Exponent: X(1)}
	df := Diff(f, 1)
	x := []float64{3, 2}
	want := math.Pow(3, 2) * math.Log(3)
	if got := df.Eval(x); !approxEq(got, want, 1e-12) {
		t.Fatalf("df = %v, want %v", got, want)
	}
}

func TestDiffLogExp(t *testing.T) {
	x := []float64{2.5}
	dlog := Diff(Log{Arg: X(0)}, 0)
	if got := dlog.Eval(x); !approxEq(got, 1/2.5, 1e-12) {
		t.Errorf("dlog = %v", got)
	}
	dexp := Diff(Exp{Arg: Scale(2, X(0))}, 0)
	if got := dexp.Eval(x); !approxEq(got, 2*math.Exp(5), 1e-12) {
		t.Errorf("dexp = %v", got)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	cases := []struct {
		in   Expr
		want float64
		at   []float64
	}{
		{Sum(X(0), C(0)), 3, []float64{3}},
		{Prod(X(0), C(1)), 3, []float64{3}},
		{Prod(X(0), C(0)), 0, []float64{3}},
		{Pow{Base: X(0), Exponent: C(0)}, 1, []float64{3}},
		{Pow{Base: X(0), Exponent: C(1)}, 3, []float64{3}},
		{Neg{Arg: Neg{Arg: X(0)}}, 3, []float64{3}},
		{Div{Num: C(0), Den: X(0)}, 0, []float64{3}},
	}
	for i, c := range cases {
		s := Simplify(c.in)
		if got := s.Eval(c.at); !approxEq(got, c.want, 1e-12) {
			t.Errorf("case %d: Simplify(%v) evals to %v, want %v", i, c.in, got, c.want)
		}
	}
	// x*0 must fold to the constant 0 node.
	if _, ok := Simplify(Prod(X(0), C(0))).(Const); !ok {
		t.Error("x*0 did not fold to Const")
	}
}

func TestSimplifyPreservesValueProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 3, 4)
		x := []float64{1 + rng.Float64()*3, 1 + rng.Float64()*3, 1 + rng.Float64()*3}
		v1 := e.Eval(x)
		v2 := Simplify(e).Eval(x)
		if math.IsNaN(v1) || math.IsInf(v1, 0) {
			return true // undefined point; nothing to check
		}
		return approxEq(v1, v2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSimplifyKeepsSingleConstantInPlace checks that a sum holding one
// constant keeps it in its slot, so the simplified tree of a Table I row
// (a/n + b·n^c + d − T) evaluates in the original order, bit for bit.
func TestSimplifyKeepsSingleConstantInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b, c, d := 1+rng.Float64()*1e4, 2+rng.Float64()*10, 1.1+rng.Float64(), rng.Float64()*100
		row := Sum(Div{Num: C(a), Den: X(0)}, Prod(C(b), Pow{Base: X(0), Exponent: C(c)}), C(d), Neg{Arg: X(1)})
		s, ok := Simplify(row).(Add)
		if !ok || len(s.Terms) != 4 || s.Terms[2] != Const(d) {
			t.Fatalf("Simplify(%v) = %v, want the constant %v third", row, Simplify(row), d)
		}
		x := []float64{1 + rng.Float64()*1e4, rng.Float64() * 1e3}
		if got, want := s.Eval(x), row.Eval(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Simplify(%v) at %v = %v, unsimplified %v", row, x, got, want)
		}
	}
}

// randomExpr builds a random expression over nv variables, positive-safe
// (log/exp arguments kept to variables so x>0 keeps everything defined).
func randomExpr(rng *rand.Rand, nv, depth int) Expr {
	if depth == 0 || rng.Float64() < 0.3 {
		if rng.Float64() < 0.5 {
			return X(rng.Intn(nv))
		}
		return C(float64(rng.Intn(9)) - 4)
	}
	switch rng.Intn(6) {
	case 0:
		return Sum(randomExpr(rng, nv, depth-1), randomExpr(rng, nv, depth-1))
	case 1:
		return Prod(randomExpr(rng, nv, depth-1), randomExpr(rng, nv, depth-1))
	case 2:
		return Div{Num: randomExpr(rng, nv, depth-1), Den: Sum(X(rng.Intn(nv)), C(1))}
	case 3:
		return Pow{Base: Sum(X(rng.Intn(nv)), C(1)), Exponent: C(float64(1 + rng.Intn(3)))}
	case 4:
		return Log{Arg: Sum(X(rng.Intn(nv)), C(1))}
	default:
		return Neg{Arg: randomExpr(rng, nv, depth-1)}
	}
}

func TestGradientMatchesNumericProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 3, 4)
		x := []float64{0.5 + rng.Float64()*2, 0.5 + rng.Float64()*2, 0.5 + rng.Float64()*2}
		// The same trees and points hold the compiled tape to the tree
		// walkers exactly, wild regions included.
		if err := tapeMatchesTree(e, x); err != nil {
			t.Error(err)
			return false
		}
		v := e.Eval(x)
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
			return true
		}
		grad := make([]float64, 3)
		Gradient(e, x, grad)
		num := NumericGradient(e, x)
		for i := range grad {
			if math.Abs(grad[i]) > 1e6 {
				return true // numerically wild region; skip
			}
			if !approxEq(grad[i], num[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGradientMatchesSymbolicDiff(t *testing.T) {
	e := perfModel()
	x := []float64{27180, 0.001, 1.2, 45.6, 104}
	grad := make([]float64, 5)
	val := Gradient(e, x, grad)
	if !approxEq(val, e.Eval(x), 1e-12) {
		t.Fatalf("Gradient value %v != Eval %v", val, e.Eval(x))
	}
	for i := 0; i < 5; i++ {
		want := Diff(e, i).Eval(x)
		if !approxEq(grad[i], want, 1e-9) {
			t.Errorf("grad[%d] = %v, want %v", i, grad[i], want)
		}
	}
}

func TestAsAffineLinear(t *testing.T) {
	// 3 + 2x0 - 5x1 + x0 → const 3, coef {0:3, 1:-5}.
	e := Sum(C(3), Scale(2, X(0)), Scale(-5, X(1)), X(0))
	a, ok := AsAffine(e)
	if !ok {
		t.Fatal("expected affine")
	}
	if a.Constant != 3 || a.Coef[0] != 3 || a.Coef[1] != -5 {
		t.Fatalf("affine = %+v", a)
	}
}

func TestAsAffineDivByConst(t *testing.T) {
	e := Div{Num: Sum(X(0), C(4)), Den: C(2)}
	a, ok := AsAffine(e)
	if !ok || a.Constant != 2 || a.Coef[0] != 0.5 {
		t.Fatalf("affine = %+v ok=%v", a, ok)
	}
}

func TestAsAffineRejectsNonlinear(t *testing.T) {
	nonlinear := []Expr{
		Prod(X(0), X(1)),
		Div{Num: C(1), Den: X(0)},
		Pow{Base: X(0), Exponent: C(2)},
		Log{Arg: X(0)},
		Exp{Arg: X(0)},
		Pow{Base: X(0), Exponent: X(1)},
	}
	for i, e := range nonlinear {
		if _, ok := AsAffine(e); ok {
			t.Errorf("case %d: %v wrongly classified as affine", i, e)
		}
	}
}

func TestAffineEvalMatchesExpr(t *testing.T) {
	e := Sum(C(3), Scale(2, X(0)), Scale(-5, X(1)))
	a, _ := AsAffine(e)
	x := []float64{1.5, -2}
	if !approxEq(a.Eval(x), e.Eval(x), 1e-12) {
		t.Fatal("affine eval mismatch")
	}
	back := a.ToExpr()
	if !approxEq(back.Eval(x), e.Eval(x), 1e-12) {
		t.Fatal("ToExpr eval mismatch")
	}
}

func TestLinearizeAtTangency(t *testing.T) {
	// For convex f, the linearization at x0 must touch f at x0 and
	// underestimate f elsewhere (the outer-approximation property).
	f := Sum(Div{Num: C(100), Den: X(0)}, C(5)) // convex for x>0
	x0 := []float64{10.0}
	lin := LinearizeAt(f, x0)
	if !approxEq(lin.Eval(x0), f.Eval(x0), 1e-10) {
		t.Fatalf("linearization not tangent: %v vs %v", lin.Eval(x0), f.Eval(x0))
	}
	for _, xv := range []float64{1, 5, 20, 100} {
		x := []float64{xv}
		if lin.Eval(x) > f.Eval(x)+1e-9 {
			t.Errorf("OA cut overestimates convex f at %v: %v > %v", xv, lin.Eval(x), f.Eval(x))
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := Sum(Div{Num: NamedVar(0, "a"), Den: NamedVar(4, "n")}, NamedVar(3, "d"))
	s := e.String()
	if s == "" {
		t.Fatal("empty render")
	}
	for _, sub := range []string{"a", "n", "d", "/"} {
		if !containsStr(s, sub) {
			t.Errorf("render %q missing %q", s, sub)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
