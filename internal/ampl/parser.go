package ampl

import (
	"fmt"
	"math"
	"strconv"

	"hslb/internal/expr"
	"hslb/internal/model"
)

// Result of parsing an AMPL model.
type Result struct {
	Model *model.Model
	// VarIndex maps plain variable names to model variable indices.
	VarIndex map[string]int
	// IndexedVarIndex maps family name → set element → variable index.
	IndexedVarIndex map[string]map[float64]int
	// Params holds the declared parameters.
	Params map[string]float64
	// Sets holds the declared sets.
	Sets map[string][]float64
}

type parser struct {
	toks []token
	pos  int
	res  *Result
	// scope holds sum-index bindings during expression parsing.
	scope map[string]float64
	// families lists the indexed variable declarations in order.
	families []family
}

// family is one indexed declaration; its members are the model variables
// base, base+1, … in the order of set.
type family struct {
	name string
	set  []float64
	base int
}

// IndexedName names member elem of the indexed family name, as in x[3] or
// n_ocn[0.5]. The element is printed as fmt's %g prints it, so the name is
// the same in the model, its canonical form and a solve response.
func IndexedName(name string, elem float64) string {
	return name + "[" + strconv.FormatFloat(elem, 'g', -1, 64) + "]"
}

// Parse builds an optimization model from AMPL source text.
func Parse(src string) (*Result, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks: toks,
		res: &Result{
			Model:           model.New(),
			VarIndex:        map[string]int{},
			IndexedVarIndex: map[string]map[float64]int{},
			Params:          map[string]float64{},
			Sets:            map[string][]float64{},
		},
		scope: map[string]float64{},
	}
	if err := p.parseStatements(); err != nil {
		return nil, err
	}
	p.registerSelectionSets()
	if err := p.res.Model.Validate(); err != nil {
		return nil, fmt.Errorf("ampl: parsed model invalid: %w", err)
	}
	return p.res, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

// next consumes and returns the current token; it never advances past EOF,
// so a truncated input yields clean "expected X, found ”" errors instead
// of walking off the token slice.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("ampl: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) error {
	if p.cur().text != text {
		return p.errf("expected %q, found %q", text, p.cur().text)
	}
	p.pos++
	return nil
}

func (p *parser) parseStatements() error {
	for p.cur().kind != tokEOF {
		t := p.cur()
		if t.kind != tokIdent {
			return p.errf("expected statement keyword, found %q", t.text)
		}
		var err error
		switch t.text {
		case "param":
			err = p.parseParam()
		case "set":
			err = p.parseSet()
		case "var":
			err = p.parseVar()
		case "minimize", "maximize":
			err = p.parseObjective(t.text == "maximize")
		case "subject", "s.t.":
			err = p.parseConstraint()
		default:
			return p.errf("unknown statement %q", t.text)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// param name := <const expr> ;
func (p *parser) parseParam() error {
	p.next() // param
	name := p.next().text
	if err := p.expect(":="); err != nil {
		return err
	}
	e, err := p.parseExpr()
	if err != nil {
		return err
	}
	c, ok := constValue(e)
	if !ok {
		return p.errf("param %s must be constant", name)
	}
	p.res.Params[name] = c
	return p.expect(";")
}

// set NAME := { v1, v2, ... } ;
func (p *parser) parseSet() error {
	p.next() // set
	name := p.next().text
	if err := p.expect(":="); err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	var vals []float64
	for {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		c, ok := constValue(e)
		if !ok {
			return p.errf("set %s elements must be constant", name)
		}
		vals = append(vals, c)
		if p.cur().text == "," {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect("}"); err != nil {
		return err
	}
	p.res.Sets[name] = vals
	return p.expect(";")
}

// var name [{SET}] [integer|binary] [>= expr] [<= expr] ;
func (p *parser) parseVar() error {
	p.next() // var
	name := p.next().text
	var setName string
	if p.cur().text == "{" {
		p.pos++
		setName = p.next().text
		if _, ok := p.res.Sets[setName]; !ok {
			return p.errf("unknown set %q", setName)
		}
		if err := p.expect("}"); err != nil {
			return err
		}
	}
	vtype := model.Continuous
	lower, upper := math.Inf(-1), math.Inf(1)
	for p.cur().text != ";" {
		switch p.cur().text {
		case "integer":
			vtype = model.Integer
			p.pos++
		case "binary":
			vtype = model.Binary
			p.pos++
		case ">=", "<=":
			op := p.next().text
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			c, ok := constValue(e)
			if !ok {
				return p.errf("variable bound must be constant")
			}
			if op == ">=" {
				lower = c
			} else {
				upper = c
			}
		default:
			return p.errf("unexpected token %q in var declaration", p.cur().text)
		}
	}
	if vtype == model.Integer && (math.IsInf(lower, -1) || math.IsInf(upper, 1)) {
		return p.errf("integer variable %s needs finite bounds", name)
	}
	if setName == "" {
		v := p.res.Model.AddVar(name, vtype, lower, upper)
		p.res.VarIndex[name] = v.Index
	} else {
		fam := map[float64]int{}
		p.families = append(p.families, family{name, p.res.Sets[setName], len(p.res.Model.Vars)})
		for _, elem := range p.res.Sets[setName] {
			v := p.res.Model.AddVar(IndexedName(name, elem), vtype, lower, upper)
			fam[elem] = v.Index
		}
		p.res.IndexedVarIndex[name] = fam
	}
	return p.expect(";")
}

// minimize|maximize name : expr ;
func (p *parser) parseObjective(maximize bool) error {
	p.next() // keyword
	p.next() // objective name (unused)
	if err := p.expect(":"); err != nil {
		return err
	}
	e, err := p.parseExpr()
	if err != nil {
		return err
	}
	sense := model.Minimize
	if maximize {
		sense = model.Maximize
	}
	p.res.Model.SetObjective(expr.Simplify(e), sense)
	return p.expect(";")
}

// subject to name : expr (<=|>=|=) expr ;   (also "s.t. name : ...")
func (p *parser) parseConstraint() error {
	if p.cur().text == "subject" {
		p.next()
		if err := p.expect("to"); err != nil {
			return err
		}
	} else {
		p.next() // s.t.
	}
	name := p.next().text
	if err := p.expect(":"); err != nil {
		return err
	}
	lhs, err := p.parseExpr()
	if err != nil {
		return err
	}
	opTok := p.next().text
	var sense model.Sense
	switch opTok {
	case "<=":
		sense = model.LE
	case ">=":
		sense = model.GE
	case "=", "==":
		sense = model.EQ
	default:
		return p.errf("expected relational operator, found %q", opTok)
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return err
	}
	// Normalize to body sense constRHS when the right side is constant;
	// otherwise move everything left.
	if c, ok := constValue(rhs); ok {
		p.res.Model.AddConstraint(name, expr.Simplify(lhs), sense, c)
	} else {
		p.res.Model.AddConstraint(name, expr.Simplify(expr.Sub(lhs, rhs)), sense, 0)
	}
	return p.expect(";")
}

// ---- expression grammar ----
// expr   := term (('+'|'-') term)*
// term   := factor (('*'|'/') factor)*
// factor := '-' factor | atom ('^' factor)?   // ^ right-assoc, - over factor
// atom   := number | ident | ident '[' expr ']' | '(' expr ')' | sum

func (p *parser) parseExpr() (expr.Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().text {
		case "+":
			p.pos++
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = expr.Sum(left, right)
		case "-":
			p.pos++
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = expr.Sub(left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseTerm() (expr.Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().text {
		case "*":
			p.pos++
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = expr.Prod(left, right)
		case "/":
			p.pos++
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = expr.Div{Num: left, Den: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseFactor() (expr.Expr, error) {
	// Unary minus applies to the whole factor, so -x^2 is -(x^2) as in
	// AMPL and ordinary mathematical convention.
	if p.cur().text == "-" {
		p.pos++
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return expr.Neg{Arg: e}, nil
	}
	base, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	if p.cur().text == "^" {
		p.pos++
		exp, err := p.parseFactor() // right associative
		if err != nil {
			return nil, err
		}
		return expr.Pow{Base: base, Exponent: exp}, nil
	}
	return base, nil
}

func (p *parser) parseAtom() (expr.Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return expr.C(v), nil
	case t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(")")
	case t.text == "sum":
		return p.parseSum()
	case t.kind == tokIdent:
		p.pos++
		name := t.text
		// Indexed variable reference z[expr].
		if p.cur().text == "[" {
			p.pos++
			idxExpr, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			idx, ok := constValue(idxExpr)
			if !ok {
				return nil, p.errf("index of %s must evaluate to a constant", name)
			}
			fam, ok := p.res.IndexedVarIndex[name]
			if !ok {
				return nil, p.errf("unknown indexed variable %q", name)
			}
			vi, ok := fam[idx]
			if !ok {
				return nil, p.errf("%s not in its index set", IndexedName(name, idx))
			}
			return expr.NamedVar(vi, IndexedName(name, idx)), nil
		}
		if v, ok := p.scope[name]; ok {
			return expr.C(v), nil
		}
		if v, ok := p.res.Params[name]; ok {
			return expr.C(v), nil
		}
		if vi, ok := p.res.VarIndex[name]; ok {
			return expr.NamedVar(vi, name), nil
		}
		return nil, p.errf("unknown identifier %q", name)
	default:
		return nil, p.errf("unexpected token %q in expression", t.text)
	}
}

// parseSum handles: sum { k in SET } <factor-level expr>.
// The body binds as tightly as a product factor, matching AMPL:
// sum{k in O} z[k]*k is Σ (z[k]*k).
func (p *parser) parseSum() (expr.Expr, error) {
	p.next() // sum
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	idxName := p.next().text
	if err := p.expect("in"); err != nil {
		return nil, err
	}
	setName := p.next().text
	set, ok := p.res.Sets[setName]
	if !ok {
		return nil, p.errf("unknown set %q in sum", setName)
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	if _, shadowed := p.scope[idxName]; shadowed {
		return nil, p.errf("nested sums may not reuse index %q", idxName)
	}
	// Re-parse the body once per element with the index bound.
	bodyStart := p.pos
	var bodyEnd int
	terms := make([]expr.Expr, 0, len(set))
	for i, elem := range set {
		p.pos = bodyStart
		p.scope[idxName] = elem
		e, err := p.parseTerm()
		delete(p.scope, idxName)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			bodyEnd = p.pos
		} else if p.pos != bodyEnd {
			return nil, p.errf("sum body parsed inconsistently")
		}
		terms = append(terms, e)
	}
	p.pos = bodyEnd
	return expr.Sum(terms...), nil
}

func constValue(e expr.Expr) (float64, bool) {
	s := expr.Simplify(e)
	if c, ok := s.(expr.Const); ok {
		return float64(c), true
	}
	return 0, false
}
