// Package expr implements scalar expression trees over indexed variables,
// with evaluation, simplification, affine-form extraction and interval
// arithmetic, and compiles them into tapes (Tape) whose forward and reverse
// sweeps give a value and its exact gradient by reverse-mode automatic
// differentiation.
//
// The package plays the role AMPL's expression layer plays in the paper: the
// HSLB models of Table I and the performance functions of Table II are built
// as expr trees, and the MINLP solver takes exact gradients from their tapes.
package expr

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Expr is a scalar expression over variables x[0..n).
type Expr interface {
	// Eval evaluates the expression at x.
	Eval(x []float64) float64
	// String renders the expression in an AMPL-like syntax.
	String() string
}

// Const is a constant expression.
type Const float64

// Var references variable x[Index]. Name is used only for printing.
type Var struct {
	Index int
	Name  string
}

// Add is a sum of terms.
type Add struct{ Terms []Expr }

// Mul is a product of factors.
type Mul struct{ Factors []Expr }

// Div is Num/Den.
type Div struct{ Num, Den Expr }

// Pow is Base^Exponent. The exponent may be any expression, but constant
// exponents get cheaper and more accurate derivative handling.
type Pow struct{ Base, Exponent Expr }

// Log is the natural logarithm.
type Log struct{ Arg Expr }

// Exp is e^Arg.
type Exp struct{ Arg Expr }

// Neg is -Arg.
type Neg struct{ Arg Expr }

// C returns a constant expression.
func C(v float64) Const { return Const(v) }

// X returns a variable expression with a default name.
func X(i int) Var { return Var{Index: i, Name: fmt.Sprintf("x%d", i)} }

// NamedVar returns a variable expression with an explicit name.
func NamedVar(i int, name string) Var { return Var{Index: i, Name: name} }

// Sum builds an Add node; it flattens nested sums.
func Sum(terms ...Expr) Expr {
	flat := make([]Expr, 0, len(terms))
	for _, t := range terms {
		if a, ok := t.(Add); ok {
			flat = append(flat, a.Terms...)
		} else {
			flat = append(flat, t)
		}
	}
	switch len(flat) {
	case 0:
		return Const(0)
	case 1:
		return flat[0]
	}
	return Add{Terms: flat}
}

// Prod builds a Mul node; it flattens nested products.
func Prod(factors ...Expr) Expr {
	flat := make([]Expr, 0, len(factors))
	for _, f := range factors {
		if m, ok := f.(Mul); ok {
			flat = append(flat, m.Factors...)
		} else {
			flat = append(flat, f)
		}
	}
	switch len(flat) {
	case 0:
		return Const(1)
	case 1:
		return flat[0]
	}
	return Mul{Factors: flat}
}

// Sub returns a - b.
func Sub(a, b Expr) Expr { return Sum(a, Neg{Arg: b}) }

// Scale returns c*e.
func Scale(c float64, e Expr) Expr { return Prod(Const(c), e) }

func (c Const) Eval(_ []float64) float64 { return float64(c) }
func (v Var) Eval(x []float64) float64   { return x[v.Index] }

func (a Add) Eval(x []float64) float64 {
	s := 0.0
	for _, t := range a.Terms {
		s += t.Eval(x)
	}
	return s
}

func (m Mul) Eval(x []float64) float64 {
	p := 1.0
	for _, f := range m.Factors {
		p *= f.Eval(x)
	}
	return p
}

func (d Div) Eval(x []float64) float64 { return d.Num.Eval(x) / d.Den.Eval(x) }

func (p Pow) Eval(x []float64) float64 {
	return math.Pow(p.Base.Eval(x), p.Exponent.Eval(x))
}

func (l Log) Eval(x []float64) float64 { return math.Log(l.Arg.Eval(x)) }
func (e Exp) Eval(x []float64) float64 { return math.Exp(e.Arg.Eval(x)) }
func (n Neg) Eval(x []float64) float64 { return -n.Arg.Eval(x) }

func (c Const) String() string {
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%g", float64(c)), ""), "")
}

func (v Var) String() string {
	if v.Name != "" {
		return v.Name
	}
	return fmt.Sprintf("x%d", v.Index)
}

func (a Add) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " + ") + ")"
}

func (m Mul) String() string {
	parts := make([]string, len(m.Factors))
	for i, f := range m.Factors {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, "*") + ")"
}

func (d Div) String() string { return "(" + d.Num.String() + "/" + d.Den.String() + ")" }
func (p Pow) String() string { return "(" + p.Base.String() + "^" + p.Exponent.String() + ")" }
func (l Log) String() string { return "log(" + l.Arg.String() + ")" }
func (e Exp) String() string { return "exp(" + e.Arg.String() + ")" }
func (n Neg) String() string { return "(-" + n.Arg.String() + ")" }

// Children returns the direct sub-expressions of e.
func Children(e Expr) []Expr {
	switch t := e.(type) {
	case Const, Var:
		return nil
	case Add:
		return t.Terms
	case Mul:
		return t.Factors
	case Div:
		return []Expr{t.Num, t.Den}
	case Pow:
		return []Expr{t.Base, t.Exponent}
	case Log:
		return []Expr{t.Arg}
	case Exp:
		return []Expr{t.Arg}
	case Neg:
		return []Expr{t.Arg}
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

// Vars returns the sorted list of variable indices referenced by e.
func Vars(e Expr) []int {
	set := map[int]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		if v, ok := e.(Var); ok {
			set[v.Index] = true
		}
		for _, c := range Children(e) {
			walk(c)
		}
	}
	walk(e)
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// MaxVarIndex returns the largest variable index in e, or -1 when e is
// constant.
func MaxVarIndex(e Expr) int {
	m := -1
	var walk func(Expr)
	walk = func(e Expr) {
		if v, ok := e.(Var); ok && v.Index > m {
			m = v.Index
		}
		for _, c := range Children(e) {
			walk(c)
		}
	}
	walk(e)
	return m
}
