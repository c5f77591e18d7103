package expr

import "math"

// Tape is an expression compiled once into a flat pre-order program with
// preallocated value and adjoint buffers, for callers that evaluate and
// differentiate the same expression many times: every outer-approximation
// cut and feasibility check of internal/minlp reads one.
//
// Eval runs the forward sweep; Reverse runs the reverse sweep over the values
// of the last forward sweep and returns the gradient at the tape's own
// variables. Neither allocates. Both perform the same floating-point
// operations in the same order as the recursive tree walks, Expr.Eval and
// reverse-mode AD over the tree (kept in the tests as the reference), so
// their results are bit-identical: sums and products start from 0 and 1 and
// take their operands in tree order, the adjoint pass visits nodes in
// pre-order — the order the tree walk recurses in — and each variable's
// adjoint accumulates its leaves in that DFS order. Variable-free subtrees
// are folded into constants (their adjoints never reach a variable), and an
// Add whose terms are all c·x, x, −x or constants becomes one linear-sum
// instruction.
//
// A Tape is not safe for concurrent use: its buffers hold one evaluation.
// internal/minlp compiles its tapes once per solve, and internal/nlp once per
// Solve call; neither shares one across goroutines.
type Tape struct {
	code []inst
	kids []int32   // operands of opAdd/opMul, in term order
	lin  []linTerm // terms of opLin, in term order
	vars []int     // distinct variable indices, ascending
	val  []float64 // per instruction: value at the last forward sweep
	adj  []float64 // per instruction: adjoint of the last reverse sweep
	grad []float64 // per vars entry: ∂/∂x of the last reverse sweep
}

type opcode uint8

const (
	opConst opcode = iota // k
	opVar                 // x[a], gradient slot b
	opLin                 // Σ lin[a:b]
	opAdd                 // Σ val[kids[a:b]]
	opMul                 // Π val[kids[a:b]]
	opDiv                 // val[a] / val[b]
	opPow                 // val[a] ^ val[b]
	opLog                 // log val[a]
	opExp                 // exp val[a]
	opNeg                 // −val[a]
)

type inst struct {
	op   opcode
	a, b int32
	k    float64
}

// linTerm is c·x[x] accumulating into gradient slot slot, or the constant c
// when slot < 0.
type linTerm struct {
	slot, x int32
	c       float64
}

// Compile flattens e into a Tape.
func Compile(e Expr) *Tape {
	t := &Tape{vars: Vars(e)}
	slot := make(map[int]int32, len(t.vars))
	for k, v := range t.vars {
		slot[v] = int32(k)
	}
	t.emit(e, slot)
	t.val = make([]float64, len(t.code))
	t.adj = make([]float64, len(t.code))
	t.grad = make([]float64, len(t.vars))
	return t
}

// Gradient computes f(x) and ∇f(x) by compiling e and running one forward and
// one reverse sweep. grad must have length >= the number of variables; it is
// zeroed first, so the entries of variables e does not read stay 0. A caller
// that differentiates the same expression repeatedly keeps the Tape instead.
func Gradient(e Expr, x []float64, grad []float64) float64 {
	for i := range grad {
		grad[i] = 0
	}
	t := Compile(e)
	v := t.Eval(x)
	g := t.Reverse()
	for k, j := range t.vars {
		grad[j] = g[k]
	}
	return v
}

// Vars returns the distinct variable indices the tape reads, ascending; the
// slice Reverse returns is aligned with it. The caller must not modify it.
func (t *Tape) Vars() []int { return t.vars }

// emit appends e's program in pre-order and returns the index of its root.
func (t *Tape) emit(e Expr, slot map[int]int32) int32 {
	i := int32(len(t.code))
	if MaxVarIndex(e) < 0 {
		t.code = append(t.code, inst{op: opConst, k: e.Eval(nil)})
		return i
	}
	t.code = append(t.code, inst{})
	switch n := e.(type) {
	case Var:
		t.code[i] = inst{op: opVar, a: int32(n.Index), b: slot[n.Index]}
	case Add:
		if terms, ok := linearTerms(n, slot); ok {
			a := int32(len(t.lin))
			t.lin = append(t.lin, terms...)
			t.code[i] = inst{op: opLin, a: a, b: int32(len(t.lin))}
			break
		}
		t.code[i] = t.nary(opAdd, n.Terms, slot)
	case Mul:
		t.code[i] = t.nary(opMul, n.Factors, slot)
	case Div:
		num := t.emit(n.Num, slot)
		t.code[i] = inst{op: opDiv, a: num, b: t.emit(n.Den, slot)}
	case Pow:
		base := t.emit(n.Base, slot)
		t.code[i] = inst{op: opPow, a: base, b: t.emit(n.Exponent, slot)}
	case Log:
		t.code[i] = inst{op: opLog, a: t.emit(n.Arg, slot)}
	case Exp:
		t.code[i] = inst{op: opExp, a: t.emit(n.Arg, slot)}
	case Neg:
		t.code[i] = inst{op: opNeg, a: t.emit(n.Arg, slot)}
	default:
		panic("expr: unknown node in Compile")
	}
	return i
}

// nary emits the operands of an Add or Mul and returns its instruction.
func (t *Tape) nary(op opcode, operands []Expr, slot map[int]int32) inst {
	kids := make([]int32, len(operands))
	for k, o := range operands {
		kids[k] = t.emit(o, slot)
	}
	a := int32(len(t.kids))
	t.kids = append(t.kids, kids...)
	return inst{op: op, a: a, b: int32(len(t.kids))}
}

// linearTerms returns a's terms as linear-sum terms when every one is c·x,
// x, −x or variable-free. c·x is a two-factor Mul, which the tree evaluates as
// (1·c)·x = c·x and whose x-adjoint it computes as adj·(1·c) = adj·c.
func linearTerms(a Add, slot map[int]int32) ([]linTerm, bool) {
	out := make([]linTerm, 0, len(a.Terms))
	for _, term := range a.Terms {
		if MaxVarIndex(term) < 0 {
			out = append(out, linTerm{slot: -1, c: term.Eval(nil)})
			continue
		}
		x, c, ok := scaledVar(term)
		if !ok {
			return nil, false
		}
		out = append(out, linTerm{slot: slot[x.Index], x: int32(x.Index), c: c})
	}
	return out, true
}

// scaledVar matches x, −x, c·x and x·c with c variable-free.
func scaledVar(e Expr) (Var, float64, bool) {
	switch n := e.(type) {
	case Var:
		return n, 1, true
	case Neg:
		if x, ok := n.Arg.(Var); ok {
			return x, -1, true
		}
	case Mul:
		if len(n.Factors) != 2 {
			break
		}
		if x, ok := n.Factors[1].(Var); ok && MaxVarIndex(n.Factors[0]) < 0 {
			return x, n.Factors[0].Eval(nil), true
		}
		if x, ok := n.Factors[0].(Var); ok && MaxVarIndex(n.Factors[1]) < 0 {
			return x, n.Factors[1].Eval(nil), true
		}
	}
	return Var{}, 0, false
}

// Eval runs the forward sweep at x and returns the expression's value.
// Operands follow their operator in pre-order, so sweeping backwards computes
// every operand first.
func (t *Tape) Eval(x []float64) float64 {
	val := t.val
	for i := len(t.code) - 1; i >= 0; i-- {
		in := &t.code[i]
		switch in.op {
		case opConst:
			val[i] = in.k
		case opVar:
			val[i] = x[in.a]
		case opLin:
			s := 0.0
			for _, l := range t.lin[in.a:in.b] {
				if l.slot < 0 {
					s += l.c
				} else {
					// The conversion rounds the product, as the tree's
					// separate Mul.Eval does: it forbids a fused multiply-add.
					s += float64(l.c * x[l.x])
				}
			}
			val[i] = s
		case opAdd:
			s := 0.0
			for _, k := range t.kids[in.a:in.b] {
				s += val[k]
			}
			val[i] = s
		case opMul:
			p := 1.0
			for _, k := range t.kids[in.a:in.b] {
				p *= val[k]
			}
			val[i] = p
		case opDiv:
			val[i] = val[in.a] / val[in.b]
		case opPow:
			val[i] = math.Pow(val[in.a], val[in.b])
		case opLog:
			val[i] = math.Log(val[in.a])
		case opExp:
			val[i] = math.Exp(val[in.a])
		case opNeg:
			val[i] = -val[in.a]
		}
	}
	return val[0]
}

// Reverse runs the reverse sweep over the values of the last Eval and returns
// the gradient, aligned with Vars. The slice is the tape's own buffer, valid
// until the next Reverse.
func (t *Tape) Reverse() []float64 {
	val, adj, grad := t.val, t.adj, t.grad
	for k := range grad {
		grad[k] = 0
	}
	adj[0] = 1
	for i := range t.code {
		in := &t.code[i]
		a := adj[i]
		switch in.op {
		case opVar:
			grad[in.b] += a
		case opLin:
			for _, l := range t.lin[in.a:in.b] {
				if l.slot >= 0 {
					grad[l.slot] += float64(a * l.c) // no fused multiply-add
				}
			}
		case opAdd:
			for _, k := range t.kids[in.a:in.b] {
				adj[k] = a
			}
		case opMul:
			kids := t.kids[in.a:in.b]
			for p, k := range kids {
				if t.code[k].op == opConst {
					continue
				}
				other := 1.0
				for q, j := range kids {
					if q != p {
						other *= val[j]
					}
				}
				adj[k] = a * other
			}
		case opDiv:
			num, den := val[in.a], val[in.b]
			adj[in.a] = a / den
			adj[in.b] = -a * num / (den * den)
		case opPow:
			base, exp := val[in.a], val[in.b]
			adj[in.a] = a * exp * math.Pow(base, exp-1)
			if t.code[in.b].op != opConst {
				adj[in.b] = a * val[i] * math.Log(base)
			}
		case opLog:
			adj[in.a] = a / val[in.a]
		case opExp:
			adj[in.a] = a * val[i]
		case opNeg:
			adj[in.a] = -a
		}
	}
	return grad
}
