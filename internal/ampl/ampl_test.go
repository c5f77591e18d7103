package ampl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hslb/internal/minlp"
	"hslb/internal/model"
)

func approxEq(a, b, eps float64) bool {
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	return d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

// TestIndexedNameMatchesPercentG: IndexedName prints an element exactly as
// %g does, so variable names, canonical forms and request keys stay as
// they were when names were built with fmt.
func TestIndexedNameMatchesPercentG(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -3, 0.5, 128, 1e-7, 123456, 1e20, 1e21, 2.5e-300, 1.0 / 3, math.Inf(1), math.NaN()} {
		if got, want := IndexedName("x", v), fmt.Sprintf("%s[%g]", "x", v); got != want {
			t.Errorf("IndexedName(x, %v) = %q, want %q", v, got, want)
		}
	}
}

func TestParseParamAndVar(t *testing.T) {
	res, err := Parse(`
param N := 128;
var T >= 0;
var n integer >= 1 <= 64;
minimize obj: T;
subject to cap: n <= N;
`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Params["N"] != 128 {
		t.Fatalf("param N = %v", res.Params["N"])
	}
	if len(res.Model.Vars) != 2 {
		t.Fatalf("vars = %d", len(res.Model.Vars))
	}
	v := res.Model.Vars[res.VarIndex["n"]]
	if v.Type != model.Integer || v.Lower != 1 || v.Upper != 64 {
		t.Fatalf("n declared wrong: %+v", v)
	}
	if len(res.Model.Cons) != 1 || res.Model.Cons[0].RHS != 128 {
		t.Fatalf("constraint: %+v", res.Model.Cons)
	}
}

func TestParseComments(t *testing.T) {
	_, err := Parse(`
# a comment line
param N := 4; # trailing comment
var x >= 0;
minimize o: x;
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseSetAndIndexedVars(t *testing.T) {
	res, err := Parse(`
set O := {2, 4, 24};
var z {O} binary;
var n integer >= 1 <= 100;
minimize o: n;
s.t. pick: sum {k in O} z[k] = 1;
s.t. link: sum {k in O} k * z[k] - n = 0;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets["O"]) != 3 {
		t.Fatalf("set O = %v", res.Sets["O"])
	}
	if len(res.IndexedVarIndex["z"]) != 3 {
		t.Fatalf("z family = %v", res.IndexedVarIndex["z"])
	}
	// Evaluate the pick constraint body at z[4]=1.
	x := make([]float64, res.Model.NumVars())
	x[res.IndexedVarIndex["z"][4]] = 1
	x[res.VarIndex["n"]] = 4
	if got := res.Model.Cons[0].Body.Eval(x); got != 1 {
		t.Fatalf("pick body = %v, want 1", got)
	}
	if got := res.Model.Cons[1].Body.Eval(x); got != 0 {
		t.Fatalf("link body = %v, want 0", got)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	res, err := Parse(`
var x >= 0 <= 10;
minimize o: 2 + 3 * x ^ 2 - 4 / 2;
`)
	if err != nil {
		t.Fatal(err)
	}
	// At x=2: 2 + 3*4 - 2 = 12.
	got := res.Model.Objective.Eval([]float64{2})
	if !approxEq(got, 12, 1e-12) {
		t.Fatalf("objective(2) = %v, want 12", got)
	}
}

func TestParseUnaryMinusAndPowerAssoc(t *testing.T) {
	res, err := Parse(`
var x >= 0 <= 10;
minimize o: -x ^ 2 + 2 ^ 3 ^ 1;
`)
	if err != nil {
		t.Fatal(err)
	}
	// -(x^2) + 2^(3^1) = -(9) + 8 = -1 at x=3. AMPL parses -x^2 as -(x^2).
	got := res.Model.Objective.Eval([]float64{3})
	if !approxEq(got, -1, 1e-12) {
		t.Fatalf("objective(3) = %v, want -1", got)
	}
}

func TestParseHSLBMiniModelAndSolve(t *testing.T) {
	// A small two-component layout-1-style HSLB model written in AMPL,
	// solved end to end through the MINLP solver.
	src := `
param N := 30;
var T >= 0 <= 10000;
var n1 integer >= 1 <= 30;
var n2 integer >= 1 <= 30;
minimize total: T;
subject to t1: 100 / n1 + 5 <= T;
subject to t2: 80 / n2 + 3 <= T;
subject to cap: n1 + n2 <= N;
`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := minlp.Solve(res.Model, minlp.Options{Algorithm: minlp.OuterApprox})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != minlp.Optimal {
		t.Fatalf("status %v", r.Status)
	}
	// Brute force the same instance.
	best := math.Inf(1)
	for n1 := 1; n1 < 30; n1++ {
		for n2 := 1; n1+n2 <= 30; n2++ {
			v := math.Max(100/float64(n1)+5, 80/float64(n2)+3)
			if v < best {
				best = v
			}
		}
	}
	if !approxEq(r.Obj, best, 1e-3) {
		t.Fatalf("obj = %v, brute force %v", r.Obj, best)
	}
}

func TestParseSubjectToAndSTForms(t *testing.T) {
	res, err := Parse(`
var x >= 0 <= 5;
minimize o: x;
subject to a: x >= 1;
s.t. b: x >= 2;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Model.Cons) != 2 {
		t.Fatalf("cons = %d", len(res.Model.Cons))
	}
	if res.Model.Cons[1].Name != "b" {
		t.Fatalf("second constraint name %q", res.Model.Cons[1].Name)
	}
}

func TestParseMaximize(t *testing.T) {
	res, err := Parse(`
var x >= 0 <= 9;
maximize o: x;
`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Sense != model.Maximize {
		t.Fatal("sense not maximize")
	}
}

func TestParseNonconstantRHSMovesLeft(t *testing.T) {
	res, err := Parse(`
var x >= 0 <= 9;
var y >= 0 <= 9;
minimize o: x;
s.t. c: x <= y + 1;
`)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Model.Cons[0]
	if c.RHS != 0 {
		t.Fatalf("RHS = %v, want 0 after normalization", c.RHS)
	}
	// body = x - (y+1); at x=3,y=5 → -3.
	if got := c.Body.Eval([]float64{3, 5}); !approxEq(got, -3, 1e-12) {
		t.Fatalf("body = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`param N = 4;`,                            // missing :=
		`var x >= y;`,                             // nonconstant bound
		`var n integer;`,                          // unbounded integer
		`minimize o: unknown;`,                    // unknown identifier
		`set S := {1,2}; var z {T} binary;`,       // unknown set
		`var x >= 0; s.t. c: x ! 3;`,              // bad operator
		`var x >= 0; minimize o: sum {k in M} k;`, // unknown set in sum
		`var x @ 0;`,                              // bad character
		`var x >= 0; minimize o: x`,               // missing semicolon
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: error expected for %q", i, src)
		}
	}
}

func TestParamExpression(t *testing.T) {
	res, err := Parse(`
param half := 1/2;
param N := 2 ^ 6;
var x >= half <= N;
minimize o: x;
`)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Model.Vars[res.VarIndex["x"]]
	if v.Lower != 0.5 || v.Upper != 64 {
		t.Fatalf("bounds = [%v,%v]", v.Lower, v.Upper)
	}
}

func TestSumBodyBindsLikeFactor(t *testing.T) {
	res, err := Parse(`
set S := {1, 2, 3};
var z {S} binary;
minimize o: sum {k in S} k * z[k] + 100;
`)
	if err != nil {
		t.Fatal(err)
	}
	// Σ k·z[k] + 100, not Σ (k·z[k] + 100).
	x := []float64{1, 1, 1}
	got := res.Model.Objective.Eval(x)
	if !approxEq(got, 106, 1e-12) {
		t.Fatalf("objective = %v, want 106", got)
	}
}

func TestErrorMessagesIncludeLine(t *testing.T) {
	_, err := Parse("var x >= 0;\nminimize o: nope;\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line info", err)
	}
}
