package expr

import "math"

// The tree walkers below are the references the tests hold the tape to: the
// recursive reverse-mode AD it replaced (bit for bit), symbolic
// differentiation and central differences (to a tolerance).

// treeGradient computes f(x) and ∇f(x) by reverse-mode AD in one recursive
// tree pass. grad must have length >= the number of variables; it is zeroed
// before accumulation.
func treeGradient(e Expr, x []float64, grad []float64) float64 {
	for i := range grad {
		grad[i] = 0
	}
	return backprop(e, x, 1, grad)
}

// backprop evaluates e at x while pushing the adjoint (∂output/∂e = adj)
// down the tree, accumulating into grad. It returns the value of e.
func backprop(e Expr, x []float64, adj float64, grad []float64) float64 {
	switch t := e.(type) {
	case Const:
		return float64(t)
	case Var:
		grad[t.Index] += adj
		return x[t.Index]
	case Add:
		s := 0.0
		for _, term := range t.Terms {
			s += backprop(term, x, adj, grad)
		}
		return s
	case Mul:
		// Evaluate children first, then distribute the adjoint with the
		// product of the other factors.
		vals := make([]float64, len(t.Factors))
		for i, f := range t.Factors {
			vals[i] = evalNoGrad(f, x)
		}
		prod := 1.0
		for _, v := range vals {
			prod *= v
		}
		for i, f := range t.Factors {
			other := 1.0
			for j, v := range vals {
				if j != i {
					other *= v
				}
			}
			backprop(f, x, adj*other, grad)
		}
		return prod
	case Div:
		num := evalNoGrad(t.Num, x)
		den := evalNoGrad(t.Den, x)
		backprop(t.Num, x, adj/den, grad)
		backprop(t.Den, x, -adj*num/(den*den), grad)
		return num / den
	case Pow:
		base := evalNoGrad(t.Base, x)
		exp := evalNoGrad(t.Exponent, x)
		val := math.Pow(base, exp)
		// d/db b^e = e*b^(e-1); safe even at b=0 for e>1.
		backprop(t.Base, x, adj*exp*math.Pow(base, exp-1), grad)
		if _, isConst := t.Exponent.(Const); !isConst {
			// d/de b^e = b^e*log b; only meaningful for b>0.
			backprop(t.Exponent, x, adj*val*math.Log(base), grad)
		}
		return val
	case Log:
		a := evalNoGrad(t.Arg, x)
		backprop(t.Arg, x, adj/a, grad)
		return math.Log(a)
	case Exp:
		a := evalNoGrad(t.Arg, x)
		v := math.Exp(a)
		backprop(t.Arg, x, adj*v, grad)
		return v
	case Neg:
		return -backprop(t.Arg, x, -adj, grad)
	default:
		panic("expr: unknown node in backprop")
	}
}

func evalNoGrad(e Expr, x []float64) float64 { return e.Eval(x) }

// NumericGradient estimates ∇f(x) by central differences.
func NumericGradient(e Expr, x []float64) []float64 {
	grad := make([]float64, len(x))
	xt := make([]float64, len(x))
	copy(xt, x)
	for i := range x {
		h := 1e-6 * math.Max(1, math.Abs(x[i]))
		xt[i] = x[i] + h
		fp := e.Eval(xt)
		xt[i] = x[i] - h
		fm := e.Eval(xt)
		xt[i] = x[i]
		grad[i] = (fp - fm) / (2 * h)
	}
	return grad
}

// Diff returns the symbolic partial derivative of e with respect to
// variable i. The result is simplified.
func Diff(e Expr, i int) Expr {
	return Simplify(diff(e, i))
}

func diff(e Expr, i int) Expr {
	switch t := e.(type) {
	case Const:
		return Const(0)
	case Var:
		if t.Index == i {
			return Const(1)
		}
		return Const(0)
	case Add:
		terms := make([]Expr, len(t.Terms))
		for k, term := range t.Terms {
			terms[k] = diff(term, i)
		}
		return Sum(terms...)
	case Mul:
		// Product rule over all factors.
		terms := make([]Expr, 0, len(t.Factors))
		for k := range t.Factors {
			factors := make([]Expr, len(t.Factors))
			copy(factors, t.Factors)
			factors[k] = diff(t.Factors[k], i)
			terms = append(terms, Prod(factors...))
		}
		return Sum(terms...)
	case Div:
		// (u/v)' = (u'v - uv')/v².
		num := Sub(Prod(diff(t.Num, i), t.Den), Prod(t.Num, diff(t.Den, i)))
		return Div{Num: num, Den: Pow{Base: t.Den, Exponent: Const(2)}}
	case Pow:
		if c, ok := t.Exponent.(Const); ok {
			// (u^c)' = c*u^(c-1)*u'.
			return Prod(Const(float64(c)),
				Pow{Base: t.Base, Exponent: Const(float64(c) - 1)},
				diff(t.Base, i))
		}
		// General case: u^v = exp(v*log u); (u^v)' = u^v*(v'*log u + v*u'/u).
		return Prod(t,
			Sum(Prod(diff(t.Exponent, i), Log{Arg: t.Base}),
				Div{Num: Prod(t.Exponent, diff(t.Base, i)), Den: t.Base}))
	case Log:
		return Div{Num: diff(t.Arg, i), Den: t.Arg}
	case Exp:
		return Prod(t, diff(t.Arg, i))
	case Neg:
		return Neg{Arg: diff(t.Arg, i)}
	default:
		panic("expr: unknown node in diff")
	}
}
