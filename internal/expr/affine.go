package expr

// Affine represents c₀ + Σ Coef[i]·x[i]. Zero coefficients are omitted from
// the map.
type Affine struct {
	Constant float64
	Coef     map[int]float64
}

// NewAffine returns an affine form with no terms.
func NewAffine() *Affine { return &Affine{Coef: map[int]float64{}} }

func (a *Affine) add(b *Affine, scale float64) {
	a.Constant += scale * b.Constant
	for i, c := range b.Coef {
		a.Coef[i] += scale * c
		if a.Coef[i] == 0 {
			delete(a.Coef, i)
		}
	}
}

// isConstant reports whether a has no variable terms.
func (a *Affine) isConstant() bool { return len(a.Coef) == 0 }

// Eval evaluates the affine form at x.
func (a *Affine) Eval(x []float64) float64 {
	s := a.Constant
	for i, c := range a.Coef {
		s += c * x[i]
	}
	return s
}

// ToExpr converts the affine form back into an expression tree.
func (a *Affine) ToExpr() Expr {
	terms := []Expr{Const(a.Constant)}
	for i, c := range a.Coef {
		terms = append(terms, Scale(c, X(i)))
	}
	return Simplify(Sum(terms...))
}

// AsAffine attempts to express e as an affine function of its variables.
// It reports ok=false when e contains genuinely nonlinear structure
// (products of variables, variable exponents, log/exp/div by variables).
func AsAffine(e Expr) (*Affine, bool) {
	switch t := e.(type) {
	case Const:
		return &Affine{Constant: float64(t), Coef: map[int]float64{}}, true
	case Var:
		return &Affine{Coef: map[int]float64{t.Index: 1}}, true
	case Add:
		out := NewAffine()
		for _, term := range t.Terms {
			a, ok := AsAffine(term)
			if !ok {
				return nil, false
			}
			out.add(a, 1)
		}
		return out, true
	case Neg:
		a, ok := AsAffine(t.Arg)
		if !ok {
			return nil, false
		}
		out := NewAffine()
		out.add(a, -1)
		return out, true
	case Mul:
		// Affine only when at most one factor is non-constant.
		out := &Affine{Constant: 1, Coef: map[int]float64{}}
		for _, f := range t.Factors {
			a, ok := AsAffine(f)
			if !ok {
				return nil, false
			}
			if a.isConstant() {
				scaleAffine(out, a.Constant)
				continue
			}
			if !out.isConstant() {
				return nil, false // variable * variable
			}
			c := out.Constant
			out = NewAffine()
			out.add(a, c)
			out.Constant = a.Constant * c
		}
		return out, true
	case Div:
		num, ok := AsAffine(t.Num)
		if !ok {
			return nil, false
		}
		den, ok := AsAffine(t.Den)
		if !ok || !den.isConstant() || den.Constant == 0 {
			return nil, false
		}
		out := NewAffine()
		out.add(num, 1/den.Constant)
		return out, true
	case Pow:
		base, bok := AsAffine(t.Base)
		exp, eok := AsAffine(t.Exponent)
		if bok && base.isConstant() && eok && exp.isConstant() {
			v := e.Eval(nil)
			return &Affine{Constant: v, Coef: map[int]float64{}}, true
		}
		if eok && exp.isConstant() && exp.Constant == 1 && bok {
			return base, true
		}
		return nil, false
	case Log, Exp:
		if a, ok := AsAffine(Children(e)[0]); ok && a.isConstant() {
			return &Affine{Constant: e.Eval(nil), Coef: map[int]float64{}}, true
		}
		return nil, false
	default:
		return nil, false
	}
}

func scaleAffine(a *Affine, c float64) {
	a.Constant *= c
	if c == 0 {
		a.Coef = map[int]float64{}
		return
	}
	for i := range a.Coef {
		a.Coef[i] *= c
	}
}

// IsLinear reports whether e is affine in its variables.
func IsLinear(e Expr) bool {
	_, ok := AsAffine(e)
	return ok
}

// LinearizeAt returns the first-order Taylor expansion of e around x:
// f(x) + ∇f(x)·(y - x), as an affine form: the outer-approximation cut of
// paper §III-E, eq. 4. It compiles e on every call; a caller that cuts the
// same row repeatedly keeps its Tape, as internal/minlp does.
func LinearizeAt(e Expr, x []float64) *Affine {
	grad := make([]float64, len(x))
	val := Gradient(e, x, grad)
	out := NewAffine()
	out.Constant = val
	for i, g := range grad {
		if g == 0 {
			continue
		}
		out.Coef[i] = g
		out.Constant -= g * x[i]
	}
	return out
}
