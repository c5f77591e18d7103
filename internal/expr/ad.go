package expr

import "math"

// Gradient computes f(x) and ∇f(x) using reverse-mode automatic
// differentiation in a single tree pass. grad must have length >= the number
// of variables; it is zeroed before accumulation.
func Gradient(e Expr, x []float64, grad []float64) float64 {
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

// NumericGradient estimates ∇f(x) by central differences; used in tests to
// validate the AD implementation and available to solvers as a fallback.
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
