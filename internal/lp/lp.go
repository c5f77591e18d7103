// Package lp implements a dense two-phase primal simplex solver for linear
// programs with general variable bounds.
//
// It plays the role CLP plays inside the paper's MINOTAUR setup: the MILP
// relaxations built by the LP/NLP branch-and-bound solver are solved here.
// The implementation is a textbook bounded-variable simplex: nonbasic
// variables rest at a finite bound, bound flips avoid pivots, and Bland's
// rule is engaged after a stall threshold to guarantee termination.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Sense is a linear constraint relation.
type Sense int

// Constraint senses.
const (
	LE Sense = iota
	GE
	EQ
)

// Constraint is Coef·x Sense RHS. Coef must have length Problem.NumVars.
type Constraint struct {
	Coef  []float64
	Sense Sense
	RHS   float64
}

// Problem is: minimize Obj·x subject to the constraints and Lower ≤ x ≤ Upper.
// Use math.Inf for unbounded components.
type Problem struct {
	NumVars int
	Obj     []float64
	Cons    []Constraint
	Lower   []float64
	Upper   []float64
}

// NewProblem returns a problem with n variables, zero objective and default
// bounds [0, +Inf).
func NewProblem(n int) *Problem {
	p := &Problem{
		NumVars: n,
		Obj:     make([]float64, n),
		Lower:   make([]float64, n),
		Upper:   make([]float64, n),
	}
	for i := range p.Upper {
		p.Upper[i] = math.Inf(1)
	}
	return p
}

// AddConstraint appends coef·x sense rhs.
func (p *Problem) AddConstraint(coef []float64, sense Sense, rhs float64) {
	c := make([]float64, p.NumVars)
	copy(c, coef)
	p.Cons = append(p.Cons, Constraint{Coef: c, Sense: sense, RHS: rhs})
}

// Status is the outcome of a solve.
type Status int

// Solve statuses.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
	Canceled // the context ended the solve first (WarmSolver.SolveContext)
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution holds the result of Solve.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
}

// ErrBadProblem reports a malformed problem definition.
var ErrBadProblem = errors.New("lp: malformed problem")

const (
	pivTol   = 1e-9
	feasTol  = 1e-7
	costTol  = 1e-9
	blandAt  = 4000 // switch to Bland's rule after this many iterations
	maxExtra = 200  // iteration budget multiplier guard
)

// tableau is the working state of the bounded-variable simplex.
type tableau struct {
	m, n    int // rows, total columns (struct + slack + artificial)
	nStruct int
	nSlack  int
	a       [][]float64 // m×n updated tableau (B⁻¹A)
	beta    []float64   // current values of basic variables, per row
	lower   []float64
	upper   []float64
	basis   []int  // column basic in each row
	inBasis []int  // column → row, or -1
	atUpper []bool // for nonbasic columns: true if resting at upper bound
	cost    []float64
	dj      []float64 // reduced-cost row
	iters   int
	ctx     context.Context // polled by the pivot loops

	// Original-coordinate recovery.
	reflect   []bool    // original var j was reflected x → u−x'
	splitOf   []int     // original indices of free variables that were split
	origUpper []float64 // original upper bounds (for reflection undo)
	objCost   []float64 // objective in transformed coordinates
}

// Solve optimizes the problem. The returned solution's X has length
// p.NumVars.
func Solve(p *Problem) (*Solution, error) {
	sol, _, err := solveKeep(context.Background(), p)
	return sol, err
}

// solveKeep is Solve under a context, but also returns the final tableau
// when the solve ended Optimal (nil otherwise), so a WarmSolver can
// continue from it.
func solveKeep(ctx context.Context, p *Problem) (*Solution, *tableau, error) {
	if err := validate(p); err != nil {
		return nil, nil, err
	}
	t, err := build(p)
	if err != nil {
		return nil, nil, err
	}
	t.ctx = ctx

	// Phase 1: minimize the sum of artificial variables.
	phase1 := make([]float64, t.n)
	for j := t.nStruct + t.nSlack; j < t.n; j++ {
		phase1[j] = 1
	}
	st := t.run(phase1)
	if st == IterationLimit || st == Canceled {
		return &Solution{Status: st}, nil, nil
	}
	if t.objValue(phase1) > feasTol {
		return &Solution{Status: Infeasible}, nil, nil
	}
	// Pin artificials to zero so phase 2 cannot reuse them.
	for j := t.nStruct + t.nSlack; j < t.n; j++ {
		t.upper[j] = 0
	}

	// Phase 2: minimize the true objective (in transformed coordinates;
	// the constant offset from reflections does not affect the argmin).
	if st = t.run(t.objCost); st != Optimal {
		return &Solution{Status: st}, nil, nil
	}
	return t.solution(p), t, nil
}

// solution packages the tableau's current (optimal) point for the caller.
func (t *tableau) solution(p *Problem) *Solution {
	x := t.extract()
	obj := 0.0
	for j := 0; j < p.NumVars; j++ {
		obj += p.Obj[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x[:p.NumVars], Obj: obj}
}

func validate(p *Problem) error {
	if p.NumVars <= 0 {
		return fmt.Errorf("%w: NumVars = %d", ErrBadProblem, p.NumVars)
	}
	if len(p.Obj) != p.NumVars || len(p.Lower) != p.NumVars || len(p.Upper) != p.NumVars {
		return fmt.Errorf("%w: vector lengths disagree with NumVars", ErrBadProblem)
	}
	for j := 0; j < p.NumVars; j++ {
		if p.Lower[j] > p.Upper[j] {
			return fmt.Errorf("%w: empty bound interval on variable %d", ErrBadProblem, j)
		}
		if math.IsInf(p.Lower[j], 1) || math.IsInf(p.Upper[j], -1) {
			return fmt.Errorf("%w: invalid infinite bound on variable %d", ErrBadProblem, j)
		}
	}
	for i, c := range p.Cons {
		if len(c.Coef) != p.NumVars {
			return fmt.Errorf("%w: constraint %d has %d coefficients", ErrBadProblem, i, len(c.Coef))
		}
		if math.IsNaN(c.RHS) {
			return fmt.Errorf("%w: constraint %d has NaN rhs", ErrBadProblem, i)
		}
	}
	return nil
}

// build converts the problem to equality form with slacks and artificials
// and sets up the initial tableau with artificials basic.
//
// Variables with an infinite lower bound are shifted internally: if the
// upper bound is finite the variable is reflected (x → u - x'), otherwise it
// is split into a difference of two nonnegative parts. The mapping is
// recorded so extract() can undo it.
func build(p *Problem) (*tableau, error) {
	m := len(p.Cons)
	nStruct := p.NumVars
	// Reflection/split bookkeeping.
	reflect := make([]bool, nStruct)
	splitOf := make([]int, 0)
	lower := make([]float64, 0, nStruct+4)
	upper := make([]float64, 0, nStruct+4)
	for j := 0; j < nStruct; j++ {
		l, u := p.Lower[j], p.Upper[j]
		switch {
		case !math.IsInf(l, -1):
			lower = append(lower, l)
			upper = append(upper, u)
		case !math.IsInf(u, 1):
			// x = u - x'; x' ∈ [0, ∞).
			reflect[j] = true
			lower = append(lower, 0)
			upper = append(upper, math.Inf(1))
		default:
			// Free: x = x' - x''; both in [0, ∞). x' replaces column j, x''
			// appended later.
			lower = append(lower, 0)
			upper = append(upper, math.Inf(1))
			splitOf = append(splitOf, j)
		}
	}
	extra := len(splitOf)
	total := nStruct + extra + m /*slacks*/ + m /*artificials*/
	t := &tableau{
		m:       m,
		n:       total,
		nStruct: nStruct + extra,
		nSlack:  m,
		a:       make([][]float64, m),
		beta:    make([]float64, m),
		lower:   make([]float64, total),
		upper:   make([]float64, total),
		basis:   make([]int, m),
		inBasis: make([]int, total),
		atUpper: make([]bool, total),
		dj:      make([]float64, total),
	}
	copy(t.lower, lower)
	copy(t.upper, upper)
	for k := 0; k < extra; k++ {
		t.lower[nStruct+k] = 0
		t.upper[nStruct+k] = math.Inf(1)
	}
	for i := range t.inBasis {
		t.inBasis[i] = -1
	}

	for i, c := range p.Cons {
		row := make([]float64, total)
		rhs := c.RHS
		for j, v := range c.Coef {
			if reflect[j] {
				// x_j = u_j - x'_j.
				rhs -= v * p.Upper[j]
				row[j] = -v
			} else {
				row[j] = v
			}
		}
		for k, j := range splitOf {
			row[nStruct+k] = -c.Coef[j]
		}
		// Slack: LE → +s with s ≥ 0; GE → -s with s ≥ 0; EQ → s fixed at 0.
		sCol := t.nStruct + i
		switch c.Sense {
		case LE:
			row[sCol] = 1
			t.lower[sCol], t.upper[sCol] = 0, math.Inf(1)
		case GE:
			row[sCol] = -1
			t.lower[sCol], t.upper[sCol] = 0, math.Inf(1)
		case EQ:
			row[sCol] = 1
			t.lower[sCol], t.upper[sCol] = 0, 0
		}
		// Place nonbasic variables at their finite lower bound (guaranteed
		// finite after the transformation) and compute the residual.
		resid := rhs
		for j := 0; j < t.nStruct+t.nSlack; j++ {
			if row[j] != 0 && t.lower[j] != 0 {
				resid -= row[j] * t.lower[j]
			}
		}
		if resid < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			resid = -resid
		}
		aCol := t.nStruct + t.nSlack + i
		row[aCol] = 1
		t.lower[aCol], t.upper[aCol] = 0, math.Inf(1)
		t.a[i] = row
		t.beta[i] = resid
		t.basis[i] = aCol
		t.inBasis[aCol] = i
	}
	// Record split/reflect info on the tableau via closure-free fields.
	t.reflect = reflect
	t.splitOf = splitOf
	t.origUpper = append([]float64(nil), p.Upper...)
	t.objCost = make([]float64, total)
	for j := 0; j < nStruct; j++ {
		if reflect[j] {
			t.objCost[j] = -p.Obj[j]
		} else {
			t.objCost[j] = p.Obj[j]
		}
	}
	for k, j := range splitOf {
		t.objCost[nStruct+k] = -p.Obj[j]
	}
	return t, nil
}

// extract recovers structural variable values in the original coordinates.
func (t *tableau) extract() []float64 {
	vals := make([]float64, t.n)
	for j := 0; j < t.n; j++ {
		if t.inBasis[j] >= 0 {
			vals[j] = t.beta[t.inBasis[j]]
			continue
		}
		if t.atUpper[j] {
			vals[j] = t.upper[j]
		} else {
			vals[j] = t.lower[j]
		}
	}
	nOrig := len(t.reflect)
	x := make([]float64, nOrig)
	for j := 0; j < nOrig; j++ {
		if t.reflect[j] {
			x[j] = t.origUpper[j] - vals[j]
		} else {
			x[j] = vals[j]
		}
	}
	for k, j := range t.splitOf {
		x[j] -= vals[nOrig+k]
	}
	return x
}

// objValue computes cᵀx at the current basic solution.
func (t *tableau) objValue(c []float64) float64 {
	s := 0.0
	for j := 0; j < t.n; j++ {
		switch {
		case t.inBasis[j] >= 0:
			s += c[j] * t.beta[t.inBasis[j]]
		case t.atUpper[j]:
			s += c[j] * t.upper[j]
		default:
			s += c[j] * t.lower[j]
		}
	}
	return s
}

// run performs simplex iterations minimizing cost c from the current basis.
func (t *tableau) run(c []float64) Status {
	t.cost = c
	t.computeReducedCosts()
	limit := blandAt + maxExtra*(t.m+t.n)
	for iter := 0; ; iter++ {
		if iter > limit {
			return IterationLimit
		}
		if iter%64 == 0 && t.ctx.Err() != nil {
			return Canceled
		}
		bland := iter > blandAt
		j, dir := t.chooseEntering(bland)
		if j < 0 {
			return Optimal
		}
		st := t.step(j, dir)
		if st == Unbounded {
			return Unbounded
		}
		t.iters++
	}
}

// computeReducedCosts rebuilds dj = c_j − c_Bᵀ·(B⁻¹A)_j from scratch.
func (t *tableau) computeReducedCosts() {
	for j := 0; j < t.n; j++ {
		t.dj[j] = t.cost[j]
	}
	for i := 0; i < t.m; i++ {
		cb := t.cost[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.n; j++ {
			t.dj[j] -= cb * row[j]
		}
	}
}

// chooseEntering picks a nonbasic column that can improve the objective.
// dir = +1 means the variable will increase from its lower bound;
// dir = -1 means it will decrease from its upper bound.
func (t *tableau) chooseEntering(bland bool) (int, float64) {
	bestJ, bestDir, bestScore := -1, 0.0, costTol
	for j := 0; j < t.n; j++ {
		if t.inBasis[j] >= 0 || t.lower[j] == t.upper[j] {
			continue
		}
		d := t.dj[j]
		if !t.atUpper[j] && d < -bestScore {
			if bland {
				return j, 1
			}
			bestJ, bestDir, bestScore = j, 1, -d
		} else if t.atUpper[j] && d > bestScore {
			if bland {
				return j, -1
			}
			bestJ, bestDir, bestScore = j, -1, d
		}
	}
	return bestJ, bestDir
}

// step moves entering column j in direction dir as far as the ratio test
// allows, performing a bound flip or a basis change.
func (t *tableau) step(j int, dir float64) Status {
	// Maximum movement allowed by the entering variable's own bounds.
	limit := t.upper[j] - t.lower[j] // both finite or +Inf
	leaving := -1
	leavingToUpper := false
	// Pivot elements are screened relative to the column's largest entry:
	// a degenerate step that pivots on 1.5e-9 beside an entry of 216 (seen
	// on an outer-approximation node LP) multiplies the column by 1e11, and
	// the tableau then no longer represents the LP: it calls a feasible LP
	// infeasible or reports as optimal a point that misses its rows by tens
	// of units. A basic variable whose entry is screened out moves by a
	// negligible amount instead.
	tol := pivTol
	for i := 0; i < t.m; i++ {
		tol = math.Max(tol, pivTol*math.Abs(t.a[i][j]))
	}
	for i := 0; i < t.m; i++ {
		alpha := t.a[i][j] * dir // xB_i decreases at rate alpha
		if math.Abs(alpha) < tol {
			continue
		}
		b := t.basis[i]
		var room float64
		if alpha > 0 {
			// Basic variable decreases toward its lower bound.
			room = (t.beta[i] - t.lower[b]) / alpha
		} else {
			// Basic variable increases toward its upper bound.
			if math.IsInf(t.upper[b], 1) {
				continue
			}
			room = (t.beta[i] - t.upper[b]) / alpha
		}
		if room < -1e-12 {
			room = 0
		}
		// Strictly smaller room wins; on (near-)ties prefer the smaller
		// basis index, which is Bland-compatible and fights cycling.
		if room < limit-1e-12 ||
			(room < limit+1e-12 && leaving >= 0 && t.basis[i] < t.basis[leaving]) {
			limit = math.Min(limit, room)
			leaving = i
			leavingToUpper = alpha < 0
		}
	}
	if math.IsInf(limit, 1) {
		return Unbounded
	}
	if limit < 0 {
		limit = 0
	}

	if leaving < 0 {
		// Bound flip: entering variable travels to its other bound.
		for i := 0; i < t.m; i++ {
			t.beta[i] -= t.a[i][j] * dir * limit
		}
		t.atUpper[j] = dir > 0
		return Optimal // statusless; caller continues iterating
	}

	// Update basic values for the movement, then pivot j into row `leaving`.
	for i := 0; i < t.m; i++ {
		t.beta[i] -= t.a[i][j] * dir * limit
	}
	var enterVal float64
	if dir > 0 {
		enterVal = t.lower[j] + limit
	} else {
		enterVal = t.upper[j] - limit
	}

	out := t.basis[leaving]
	t.inBasis[out] = -1
	t.atUpper[out] = leavingToUpper
	t.basis[leaving] = j
	t.inBasis[j] = leaving
	t.beta[leaving] = enterVal

	piv := t.a[leaving][j]
	rowL := t.a[leaving]
	inv := 1 / piv
	for k := 0; k < t.n; k++ {
		rowL[k] *= inv
	}
	for i := 0; i < t.m; i++ {
		if i == leaving {
			continue
		}
		f := t.a[i][j]
		if f == 0 {
			continue
		}
		row := t.a[i]
		for k := 0; k < t.n; k++ {
			row[k] -= f * rowL[k]
		}
		row[j] = 0
	}
	f := t.dj[j]
	if f != 0 {
		for k := 0; k < t.n; k++ {
			t.dj[k] -= f * rowL[k]
		}
		t.dj[j] = 0
	}
	return Optimal
}
