package expr

import (
	"fmt"
	"math"
	"testing"
)

// sameFloat is == with NaN equal to NaN.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// tapeMatchesTree compiles e and checks that the tape's value and gradient at
// x, and Gradient's, equal the tree walkers' exactly.
func tapeMatchesTree(e Expr, x []float64) error {
	want := make([]float64, len(x))
	wantV := treeGradient(e, x, want)
	tp := Compile(e)
	if v, tv := e.Eval(x), tp.Eval(x); !sameFloat(tv, v) || !sameFloat(tv, wantV) {
		return fmt.Errorf("%v at %v: tape value %v, tree %v (tree AD %v)", e, x, tv, v, wantV)
	}
	got := make([]float64, len(x))
	grad := tp.Reverse()
	for k, j := range tp.Vars() {
		got[j] = grad[k]
	}
	viaGradient := make([]float64, len(x))
	if v := Gradient(e, x, viaGradient); !sameFloat(v, wantV) {
		return fmt.Errorf("%v at %v: Gradient value %v, tree %v", e, x, v, wantV)
	}
	for j := range want {
		if !sameFloat(got[j], want[j]) {
			return fmt.Errorf("%v at %v: tape ∂/∂x%d = %v, tree %v", e, x, j, got[j], want[j])
		}
		if !sameFloat(viaGradient[j], want[j]) {
			return fmt.Errorf("%v at %v: Gradient ∂/∂x%d = %v, tree %v", e, x, j, viaGradient[j], want[j])
		}
	}
	return nil
}

// TestTapeShapes covers each instruction, the linear-sum forms, variable-free
// folding and repeated variables, including points where the tree produces
// Inf and NaN.
func TestTapeShapes(t *testing.T) {
	x0, x1, x2 := X(0), X(1), X(2)
	cases := []Expr{
		C(3),
		x1,
		Neg{Arg: x0},
		Sum(Scale(2, x0), Prod(x1, C(-3)), Neg{Arg: x2}, C(5), x0, Neg{Arg: C(1)}),
		Sum(Prod(Neg{Arg: C(2)}, x1), x1, Prod(C(4), Log{Arg: C(3)})),
		Sum(Div{Num: C(27180), Den: x0}, Scale(2e-4, Pow{Base: x0, Exponent: C(1.05)}), C(44.9), Neg{Arg: x2}),
		Prod(x0, x1, x0, C(2)),
		Prod(Sum(x0, x1), Sum(x1, x2)),
		Div{Num: Sum(Scale(3, x0), x1), Den: Prod(x2, x2)},
		Pow{Base: x0, Exponent: x1},
		Pow{Base: x0, Exponent: Neg{Arg: C(2)}},
		Exp{Arg: Prod(x0, x1)},
		Log{Arg: Sum(x0, x1, x2)},
		Neg{Arg: Neg{Arg: Sum(x0, Neg{Arg: x0})}},
		Add{Terms: []Expr{x2}},
		Div{Num: Add{Terms: []Expr{C(1), Prod(C(2), Exp{Arg: C(0.5)})}}, Den: x0},
		Add{Terms: []Expr{x0, Add{Terms: []Expr{C(1), Neg{Arg: C(2)}}}, Mul{Factors: []Expr{Log{Arg: C(2)}, x1}}}},
		Pow{Base: x0, Exponent: Add{Terms: []Expr{C(1), Neg{Arg: C(0.5)}}}},
	}
	points := [][]float64{
		{1.5, 2.25, 0.75},
		{0, 1, 0},
		{-1, 0.5, 3},
		{math.Inf(1), -2, 1},
		{math.NaN(), 1, 1},
	}
	for _, e := range cases {
		for _, x := range points {
			if err := tapeMatchesTree(e, x); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestTapeSweepsAllocateNothing(t *testing.T) {
	e := Sum(Div{Num: C(27180), Den: X(0)}, Scale(2e-4, Pow{Base: X(0), Exponent: C(1.05)}),
		Prod(X(0), X(1), X(2)), Log{Arg: X(1)}, Exp{Arg: Neg{Arg: X(2)}}, Scale(-4, X(3)), C(1))
	link := Sub(Sum(Scale(4, X(1)), Scale(8, X(2)), Scale(12, X(3))), X(0))
	x := []float64{3, 1.5, 0.5, 2}
	for _, e := range []Expr{e, link} {
		tp := Compile(e)
		if n := testing.AllocsPerRun(100, func() { tp.Eval(x) }); n != 0 {
			t.Errorf("%v: forward sweep allocates %v times", e, n)
		}
		if n := testing.AllocsPerRun(100, func() { tp.Reverse() }); n != 0 {
			t.Errorf("%v: reverse sweep allocates %v times", e, n)
		}
	}
}

func TestTapeLinearSumIsOneInstruction(t *testing.T) {
	link := Sub(Sum(Scale(4, X(1)), Prod(X(2), C(8)), Neg{Arg: X(4)}, C(2)), X(0))
	if tp := Compile(link); len(tp.code) != 1 || tp.code[0].op != opLin {
		t.Fatalf("link row compiled to %d instructions, want one linear sum", len(tp.code))
	}
	if got := Compile(link).Vars(); fmt.Sprint(got) != "[0 1 2 4]" {
		t.Fatalf("Vars = %v", got)
	}
}
