package expr

import (
	"math"
	"slices"
)

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

// Compile flattens e into a Tape. It walks e twice: once to size the
// buffers, once to emit the program, working out bottom up which subtrees
// read no variable.
func Compile(e Expr) *Tape {
	var n treeSize
	n.count(e)
	t := &Tape{
		code: make([]inst, 0, n.nodes),
		kids: make([]int32, 0, n.operands),
		lin:  make([]linTerm, 0, n.operands),
	}
	if _, free := t.emit(e); free {
		t.fold(0, e)
	}
	t.bindVars(n.vars)
	t.val = make([]float64, len(t.code))
	t.adj = make([]float64, len(t.code))
	t.grad = make([]float64, len(t.vars))
	return t
}

// treeSize bounds what Compile emits: nodes, operands of sums and products,
// and variable leaves.
type treeSize struct{ nodes, operands, vars int }

func (n *treeSize) count(e Expr) {
	n.nodes++
	switch e := e.(type) {
	case Var:
		n.vars++
	case Add:
		n.operands += len(e.Terms)
		for _, o := range e.Terms {
			n.count(o)
		}
	case Mul:
		n.operands += len(e.Factors)
		for _, o := range e.Factors {
			n.count(o)
		}
	case Div:
		n.count(e.Num)
		n.count(e.Den)
	case Pow:
		n.count(e.Base)
		n.count(e.Exponent)
	case Log:
		n.count(e.Arg)
	case Exp:
		n.count(e.Arg)
	case Neg:
		n.count(e.Arg)
	}
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

// emit appends e's program in pre-order and returns the index of its root
// and whether e reads no variable. A variable-free subtree is emitted as one
// opConst whose value the caller fills in with fold only once it knows the
// subtree is maximal, so constness is worked out bottom up and each folded
// subtree is evaluated once.
func (t *Tape) emit(e Expr) (int32, bool) {
	i := int32(len(t.code))
	kids, lin := len(t.kids), len(t.lin)
	t.code = append(t.code, inst{op: opConst})
	var in inst
	free := true
	switch n := e.(type) {
	case Const:
	case Var:
		in, free = inst{op: opVar, a: int32(n.Index)}, false
	case Add:
		in, free = t.nary(opAdd, n.Terms)
		if !free {
			in = t.linear(in)
		}
	case Mul:
		in, free = t.nary(opMul, n.Factors)
	case Div:
		in, free = t.binary(opDiv, n.Num, n.Den)
	case Pow:
		in, free = t.binary(opPow, n.Base, n.Exponent)
	case Log:
		in, free = t.unary(opLog, n.Arg)
	case Exp:
		in, free = t.unary(opExp, n.Arg)
	case Neg:
		in, free = t.unary(opNeg, n.Arg)
	default:
		panic("expr: unknown node in Compile")
	}
	if free {
		t.code, t.kids, t.lin = t.code[:i+1], t.kids[:kids], t.lin[:lin]
		return i, true
	}
	if in.op == opLin {
		t.code, t.kids = t.code[:i+1], t.kids[:kids] // the terms live in lin now
	}
	t.code[i] = in
	return i, false
}

// fold fills in the value of the variable-free operand o emitted at j.
func (t *Tape) fold(j int32, o Expr) {
	if t.code[j].op == opConst {
		t.code[j].k = o.Eval(nil)
	}
}

// nary emits the operands of an Add or Mul and returns its instruction and
// whether every operand is variable-free.
func (t *Tape) nary(op opcode, operands []Expr) (inst, bool) {
	a := len(t.kids)
	t.kids = slices.Grow(t.kids, len(operands))[:a+len(operands)]
	free := true
	for k, o := range operands {
		j, f := t.emit(o)
		t.kids[a+k] = j
		free = free && f
	}
	if !free {
		for k, o := range operands {
			t.fold(t.kids[a+k], o)
		}
	}
	return inst{op: op, a: int32(a), b: int32(a + len(operands))}, free
}

func (t *Tape) binary(op opcode, x, y Expr) (inst, bool) {
	a, fx := t.emit(x)
	b, fy := t.emit(y)
	if !fx || !fy {
		t.fold(a, x)
		t.fold(b, y)
	}
	return inst{op: op, a: a, b: b}, fx && fy
}

func (t *Tape) unary(op opcode, x Expr) (inst, bool) {
	a, free := t.emit(x)
	return inst{op: op, a: a}, free
}

// linear returns the emitted Add in as one linear-sum instruction when every
// term is c·x, x, −x or variable-free, and in unchanged otherwise. c·x is a
// two-factor Mul, which the tree evaluates as (1·c)·x = c·x and whose
// x-adjoint it computes as adj·(1·c) = adj·c. Its terms' variable-free
// parts are already folded, so the constants are read off the code.
func (t *Tape) linear(in inst) inst {
	a := int32(len(t.lin))
	for _, j := range t.kids[in.a:in.b] {
		term, ok := t.scaledVar(t.code[j])
		if !ok {
			t.lin = t.lin[:a]
			return in
		}
		t.lin = append(t.lin, term)
	}
	return inst{op: opLin, a: a, b: int32(len(t.lin))}
}

// scaledVar matches a constant, x, −x, c·x and x·c with c a constant. Its
// gradient slot is bound by bindVars.
func (t *Tape) scaledVar(in inst) (linTerm, bool) {
	code := t.code
	switch {
	case in.op == opConst:
		return linTerm{slot: -1, c: in.k}, true
	case in.op == opVar:
		return linTerm{x: in.a, c: 1}, true
	case in.op == opNeg && code[in.a].op == opVar:
		return linTerm{x: code[in.a].a, c: -1}, true
	case in.op == opMul && in.b-in.a == 2:
		c, x := code[t.kids[in.a]], code[t.kids[in.a+1]]
		if x.op == opVar && c.op == opConst {
			return linTerm{x: x.a, c: c.k}, true
		}
		if c.op == opVar && x.op == opConst {
			return linTerm{x: c.a, c: x.k}, true
		}
	}
	return linTerm{}, false
}

// bindVars collects the distinct variables the program reads, ascending, and
// points each opVar and linear term at its gradient slot. n bounds their
// count.
func (t *Tape) bindVars(n int) {
	t.vars = make([]int, 0, n)
	for _, in := range t.code {
		if in.op == opVar {
			t.vars = append(t.vars, int(in.a))
		}
	}
	for _, l := range t.lin {
		if l.slot >= 0 {
			t.vars = append(t.vars, int(l.x))
		}
	}
	slices.Sort(t.vars)
	t.vars = slices.Compact(t.vars)
	slot := func(x int32) int32 {
		k, _ := slices.BinarySearch(t.vars, int(x))
		return int32(k)
	}
	for i := range t.code {
		if t.code[i].op == opVar {
			t.code[i].b = slot(t.code[i].a)
		}
	}
	for i := range t.lin {
		if t.lin[i].slot >= 0 {
			t.lin[i].slot = slot(t.lin[i].x)
		}
	}
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
