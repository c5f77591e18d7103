package lp

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestOANodeLPIsSolvedExactly replays a node LP of the outer-approximation
// tree (a 1/8° 8192-node Table I model: 73 rows of selection-set, capacity
// and unit-scaled cut rows over 13 variables; 1e300 in the file stands for
// +Inf). Its box holds xstar, a feasible point of objective 3369.88. With
// pivots screened only by the absolute pivTol, a degenerate step pivoted on
// 1.5e-9 beside 216 and the solver called the LP Infeasible (and, with its
// reduced costs rebuilt before the optimality test, returned as optimal a
// point that missed a row by 70). The answer must be a feasible vertex with
// the optimum that the same LP without its duplicate rows also gives.
func TestOANodeLPIsSolvedExactly(t *testing.T) {
	data, err := os.ReadFile("testdata/oa_node.json")
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Lower, Upper, Obj, Xstar []float64
		Cons                     []Constraint
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	for j, u := range d.Upper {
		if u >= 1e300 {
			d.Upper[j] = math.Inf(1)
		}
	}
	p := &Problem{NumVars: len(d.Obj), Obj: d.Obj, Cons: d.Cons, Lower: d.Lower, Upper: d.Upper}
	if v := violation(p, d.Xstar); v > 1e-9 {
		t.Fatalf("xstar violates the LP by %g", v)
	}
	s := solveOK(t, p)
	if v := violation(p, s.X); v > 1e-9 {
		t.Fatalf("optimal point violates the LP by %g (obj %v)", v, s.Obj)
	}
	const want = 2922.543994919928
	if !approxEq(s.Obj, want, 1e-9) {
		t.Fatalf("obj = %v, want %v", s.Obj, want)
	}
}

// violation is the largest bound or row violation of x in p.
func violation(p *Problem, x []float64) float64 {
	v := 0.0
	for j := range x {
		v = math.Max(v, math.Max(p.Lower[j]-x[j], x[j]-p.Upper[j]))
	}
	for _, c := range p.Cons {
		s := 0.0
		for j, a := range c.Coef {
			s += a * x[j]
		}
		switch c.Sense {
		case LE:
			v = math.Max(v, s-c.RHS)
		case GE:
			v = math.Max(v, c.RHS-s)
		default:
			v = math.Max(v, math.Abs(s-c.RHS))
		}
	}
	return v
}
