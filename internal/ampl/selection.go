package ampl

import (
	"hslb/internal/expr"
	"hslb/internal/model"
)

// registerSelectionSets registers Table I's selection encoding (lines
// 29-31) as an SOS-1 set, as model.AddSelectionSet would. A family z
// qualifies when it is binary over a strictly ascending set W and appears
// only in two EQ rows that list it in set order and tie it to an integer
// variable n outside it:
//
//	sum {k in W} z[k] = 1;
//	sum {k in W} k * z[k] - n = 0;
//
// Recognition walks row terms against the family's contiguous index
// range, allocating only the registered set.
func (p *parser) registerSelectionSets() {
	m := p.res.Model
	for _, f := range p.families {
		lo, hi := f.base, f.base+len(f.set)
		if m.Vars[lo].Type != model.Binary || mentions(m.Objective, lo, hi) {
			continue
		}
		pick, link, target := -1, -1, -1
		for i := range m.Cons {
			c := &m.Cons[i]
			if c.Sense == model.EQ && c.RHS == 1 && pick < 0 && isPickRow(c.Body, lo, hi) {
				pick = i
			} else if n := linkTarget(m, c, f); n >= 0 && link < 0 {
				link, target = i, n
			} else if mentions(c.Body, lo, hi) {
				pick = -1
				break
			}
		}
		if pick < 0 || link < 0 {
			continue
		}
		sels := make([]int, len(f.set))
		for k := range sels {
			sels[k] = lo + k
		}
		m.SOS = append(m.SOS, model.SOS1{Name: f.name, Target: target, Selectors: sels,
			Weights: append([]float64(nil), f.set...), Pick1Con: pick, LinkCon: link})
	}
}

// isPickRow reports whether body is z[lo] + … + z[hi-1].
func isPickRow(body expr.Expr, lo, hi int) bool {
	a, ok := body.(expr.Add)
	if !ok || len(a.Terms) != hi-lo {
		return false
	}
	for k, t := range a.Terms {
		if v, ok := t.(expr.Var); !ok || v.Index != lo+k {
			return false
		}
	}
	return true
}

// linkTarget returns n when c is the EQ row Σ k·z[k] − n = 0 over the
// family in set order, n an integer variable outside it; −1 otherwise.
// Simplify leaves each term as Mul{k, z[k]}, or z[k] alone when k = 1.
func linkTarget(m *model.Model, c *model.Constraint, f family) int {
	a, ok := c.Body.(expr.Add)
	if c.Sense != model.EQ || c.RHS != 0 || !ok || len(a.Terms) != len(f.set)+1 {
		return -1
	}
	for k, w := range f.set {
		if k > 0 && !(w > f.set[k-1]) {
			return -1 // not strictly ascending
		}
		t, coef := a.Terms[k], 1.0
		if mul, ok := t.(expr.Mul); ok && len(mul.Factors) == 2 {
			cst, _ := mul.Factors[0].(expr.Const)
			t, coef = mul.Factors[1], float64(cst)
		}
		if v, ok := t.(expr.Var); !ok || v.Index != f.base+k || coef != w {
			return -1
		}
	}
	neg, _ := a.Terms[len(f.set)].(expr.Neg)
	n, ok := neg.Arg.(expr.Var)
	if !ok || m.Vars[n.Index].Type != model.Integer || mentions(n, f.base, f.base+len(f.set)) {
		return -1
	}
	return n.Index
}

// mentions reports whether e references a variable with index in [lo, hi).
func mentions(e expr.Expr, lo, hi int) bool {
	switch t := e.(type) {
	case expr.Var:
		return t.Index >= lo && t.Index < hi
	case expr.Neg:
		return mentions(t.Arg, lo, hi)
	case expr.Div:
		return mentions(t.Num, lo, hi) || mentions(t.Den, lo, hi)
	case expr.Pow:
		return mentions(t.Base, lo, hi) || mentions(t.Exponent, lo, hi)
	}
	for _, k := range expr.Children(e) {
		if mentions(k, lo, hi) {
			return true
		}
	}
	return false
}
