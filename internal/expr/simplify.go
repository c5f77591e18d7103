package expr

import "math"

// Simplify applies constant folding and algebraic identities (x+0, x*1,
// x*0, x^1, x^0, --x, 0/x) bottom-up. It never changes the value of the
// expression at points where it is defined.
func Simplify(e Expr) Expr {
	switch t := e.(type) {
	case Const, Var:
		return e
	case Add:
		// The folded constant takes the slot of the first constant, so a
		// sum holding one constant keeps its evaluation order bit for bit.
		terms := make([]Expr, 0, len(t.Terms))
		constSum, constAt := 0.0, -1
		for _, term := range t.Terms {
			s := Simplify(term)
			inner := []Expr{s}
			if a, ok := s.(Add); ok {
				inner = a.Terms
			}
			for _, e := range inner {
				if c, ok := e.(Const); ok {
					if constAt < 0 {
						constAt = len(terms)
						terms = append(terms, nil)
					}
					constSum += float64(c)
				} else {
					terms = append(terms, e)
				}
			}
		}
		switch {
		case constAt < 0:
		case constSum != 0 || len(terms) == 1:
			terms[constAt] = Const(constSum)
		default:
			terms = append(terms[:constAt], terms[constAt+1:]...)
		}
		return Sum(terms...)
	case Mul:
		factors := make([]Expr, 0, len(t.Factors))
		constProd := 1.0
		for _, f := range t.Factors {
			s := Simplify(f)
			if m, ok := s.(Mul); ok {
				for _, inner := range m.Factors {
					if c, ok := inner.(Const); ok {
						constProd *= float64(c)
					} else {
						factors = append(factors, inner)
					}
				}
				continue
			}
			if c, ok := s.(Const); ok {
				constProd *= float64(c)
				continue
			}
			factors = append(factors, s)
		}
		if constProd == 0 {
			return Const(0)
		}
		if constProd != 1 || len(factors) == 0 {
			factors = append([]Expr{Const(constProd)}, factors...)
		}
		return Prod(factors...)
	case Div:
		num, den := Simplify(t.Num), Simplify(t.Den)
		if nc, ok := num.(Const); ok {
			if float64(nc) == 0 {
				return Const(0)
			}
			if dc, ok := den.(Const); ok {
				return Const(float64(nc) / float64(dc))
			}
		}
		if dc, ok := den.(Const); ok && float64(dc) == 1 {
			return num
		}
		return Div{Num: num, Den: den}
	case Pow:
		base, exp := Simplify(t.Base), Simplify(t.Exponent)
		if ec, ok := exp.(Const); ok {
			switch float64(ec) {
			case 0:
				return Const(1)
			case 1:
				return base
			}
			if bc, ok := base.(Const); ok {
				return Const(math.Pow(float64(bc), float64(ec)))
			}
		}
		return Pow{Base: base, Exponent: exp}
	case Log:
		arg := Simplify(t.Arg)
		if c, ok := arg.(Const); ok {
			return Const(math.Log(float64(c)))
		}
		return Log{Arg: arg}
	case Exp:
		arg := Simplify(t.Arg)
		if c, ok := arg.(Const); ok {
			return Const(math.Exp(float64(c)))
		}
		return Exp{Arg: arg}
	case Neg:
		arg := Simplify(t.Arg)
		if c, ok := arg.(Const); ok {
			return Const(-float64(c))
		}
		if n, ok := arg.(Neg); ok {
			return n.Arg
		}
		return Neg{Arg: arg}
	default:
		panic("expr: unknown node in Simplify")
	}
}
