// Package minlp implements convex mixed-integer nonlinear programming by
// branch-and-bound, reproducing the solver layer the paper takes from
// MINOTAUR (§III-E): the LP/NLP-based branch-and-bound of Quesada and
// Grossmann (OuterApprox). A single search tree solves LP relaxations built
// from outer-approximation cuts ∇f(xᵏ)ᵀ(x−xᵏ) + f(xᵏ) ≤ 0 (paper eq. 4),
// branching on fractional integers or on SOS-1 sets; when an
// integer-feasible LP point violates a nonlinear constraint, the subproblem
// with fixed integers is solved and new cuts are added, tightening the
// relaxation everywhere in the tree.
//
// The LP is the one subproblem mechanism. The paper takes the root
// linearization point from the continuous NLP relaxation; here the root
// linearization comes from a fixed pool of tangent cuts of every nonlinear
// row, taken at points spaced geometrically across the variable box, and a
// pool cut enters a node LP only when the LP point violates it. Each
// fixed-integer subproblem is solved by Kelley's cutting-plane method on the
// fixed LP, which takes one round when the rows are affine in the variables
// left free: true of every HSLB model, whose nonlinearity is in the integer
// node counts. Every variable under a nonlinear operator must have finite
// bounds, so the pool has a box to span and the Kelley rounds stay bounded.
//
// Positivity of the fitted coefficients makes the HSLB min-max and min-sum
// constraints convex (paper §III-E), so the search certifies global
// optimality there. Where the linearization points come from does not
// change that: a tangent of a convex row never cuts off a feasible point, so
// any set of them keeps every LP bound valid, and an incumbent is accepted
// only at a point that meets the rows themselves. On a nonconvex model a cut
// can cut off the optimum. internal/core answers the nonconvex Table I
// models (max-min, layout-1 sync tolerance) by its exact search instead, a
// spec (SolveAllocation) and served AMPL text (SolveModel) alike; any other
// nonconvex model still gets this search's answer.
package minlp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hslb/internal/expr"
	"hslb/internal/lp"
	"hslb/internal/model"
)

// Algorithm selects the branch-and-bound flavour.
type Algorithm int

// Algorithms. OuterApprox is the only one SolveContext runs; NLPBB, the
// NLP-based branch-and-bound this package used to carry, is kept as a name
// so existing callers compile, and SolveContext rejects it.
const (
	OuterApprox Algorithm = iota // LP/NLP-based B&B (paper's choice)
	NLPBB                        // removed NLP-based B&B
)

func (a Algorithm) String() string {
	switch a {
	case OuterApprox:
		return "lp/nlp-bb"
	case NLPBB:
		return "nlp-bb"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures the solver.
type Options struct {
	// Algorithm must be OuterApprox, the zero value.
	Algorithm Algorithm
	// RelGap is an additional relative pruning gap: subtrees whose bound is
	// within gapTol + RelGap·|incumbent| of the incumbent are pruned.
	// Essential when the integer domain is huge and many allocations are
	// near-ties (e.g. 32768-node HSLB instances where sub-millisecond
	// differences are meaningless).
	RelGap   float64
	MaxNodes int // node budget (default 100000)
	// BranchSOS branches on whole SOS-1 sets before individual variables.
	// The paper reports two orders of magnitude speedup from this rule.
	BranchSOS bool
}

// The solver's fixed tolerances.
const (
	intTol  = 1e-6 // integrality tolerance
	gapTol  = 1e-6 // absolute pruning gap
	feasTol = 1e-5 // nonlinear feasibility tolerance
)

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 100000
	}
	return o
}

// Status is the outcome of a solve.
type Status int

// Solve statuses.
const (
	Optimal Status = iota
	Infeasible
	NodeLimit
	// Deadline means the context expired (or was cancelled) mid-search. The
	// result carries the best incumbent found so far, if any — callers that
	// can live with a good-but-uncertified answer should check Result.X.
	Deadline
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	case Deadline:
		return "deadline"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	X      []float64 // length = original model variable count
	Obj    float64   // objective in the model's own sense
	Nodes  int       // branch-and-bound nodes processed
	// NLPSolves counts the LP solves of fixed-integer subproblems, in the
	// tree, the rescue dive and the canonical finish, one per Kelley round
	// (see fixedLP). The name is from when an NLP solver answered them.
	NLPSolves int
	Cuts      int // outer-approximation cuts added to the node LPs
	Presolve  PresolveStats
	// LPWarm reports warm-start activity of the node LPs.
	LPWarm lp.WarmStats
}

// ErrNonlinearEquality is returned for models with nonlinear equality
// constraints, which break the convexity assumptions of the search.
var ErrNonlinearEquality = errors.New("minlp: nonlinear equality constraints are not supported")

// Solve optimizes the convex MINLP.
func Solve(m *model.Model, opt Options) (*Result, error) {
	return SolveContext(context.Background(), m, opt)
}

// SolveContext optimizes the convex MINLP under a context. When the context
// expires or is cancelled mid-search, the solver stops at the next node (or
// cut round) boundary and returns Status Deadline together with the best
// incumbent found so far — it never returns the context error itself, so a
// timed-out solve still yields a usable (if uncertified) allocation. If no
// incumbent exists yet, a bounded rescue dive fixes the integer variables
// from the most recent relaxation point and solves one fixed-integer
// subproblem to manufacture a feasible point before giving up.
func SolveContext(ctx context.Context, m *model.Model, opt Options) (*Result, error) {
	if opt.Algorithm != OuterApprox {
		return nil, fmt.Errorf("minlp: algorithm %v is not available; the solver is %v (LP/NLP-based branch-and-bound)", opt.Algorithm, OuterApprox)
	}
	opt = opt.withDefaults()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	w, err := prepare(m)
	if err != nil {
		return nil, err
	}
	// Root presolve: tighten the work model's box before the tree search.
	ps := Presolve(w.m, feasTol)
	if ps.Infeasible {
		return &Result{Status: Infeasible, Presolve: ps}, nil
	}
	res, err := solveOA(ctx, w, opt)
	if err != nil {
		return nil, err
	}
	// Canonical finish: descend to one representative of the tied integer
	// assignments and re-solve its fixed-integer subproblem.
	if res.Status == Optimal && res.X != nil {
		if cx, cobj, ok := canonicalFinish(w, res.X); ok {
			res.X, res.Obj = cx, cobj
		}
	}
	res.Presolve = ps
	res.NLPSolves = w.subLPs
	return w.restore(res), nil
}

// canonicalFinish maps an Optimal answer to one representative of its
// tie class. HSLB models are degenerate: a component off the critical path
// can hold a few spare nodes without moving the makespan, so several
// integer assignments share the optimal objective, and the search can land
// on different ones under different pruning gaps or branching rules. The
// integer variables are fixed to the incumbent's (rounded) assignment,
// walked down to the component-wise smallest tied assignment, and the
// continuous variables re-solved, so any two solves that agree on the tie
// class return bit-identical X and Obj — the continuous part is a function
// of the assignment, not of the warm-start chain that reached it.
func canonicalFinish(w *work, raw []float64) ([]float64, float64, bool) {
	m := w.m
	intVars := m.IntegerVars()
	z := make([]float64, len(intVars))
	pt := make([]float64, m.NumVars()) // the assignment, continuous entries 0
	for k, j := range intVars {
		v := math.Round(raw[j])
		if lo := m.Vars[j].Lower; v < lo {
			v = math.Ceil(lo - 1e-9)
		}
		if hi := m.Vars[j].Upper; v > hi {
			v = math.Floor(hi + 1e-9)
		}
		z[k], pt[j] = v, v
	}
	best := w.fixedLP(pt)
	if best == nil {
		return nil, 0, false
	}
	// Tie descent: walk each integer variable down the contiguous interval
	// of values whose re-solved objective still ties the reference, in
	// variable order, so every search collapses to the same
	// representative: the component-wise smallest tied assignment reachable
	// by single steps. Candidates are screened against the constraints that
	// involve only integer variables (selection-set pick1/link rows and the
	// like) before paying for a re-solve probe, and the probe budget is far
	// above what the corpus needs; it only guards against pathological tie
	// plateaus.
	intOnly := intOnlyCons(m, intVars)
	allCons := make([]int, len(m.Cons))
	for i := range allCons {
		allCons[i] = i
	}
	xc := append([]float64(nil), best.x...)
	objRef := best.obj
	tieTol := 1e-9 * (1 + math.Abs(objRef))
	probes := 0
	freeSteps := false // steps accepted without a backing re-solve
	const maxTieProbes = 512
	for k, j := range intVars {
		lo := math.Ceil(m.Vars[j].Lower - 1e-9)
		for z[k] > lo && probes < maxTieProbes {
			z[k]--
			xc[j] = z[k]
			if !satisfiesCons(m, intOnly, xc) {
				z[k]++
				xc[j] = z[k]
				break
			}
			// Free accept: when the candidate assignment keeps the whole
			// current point feasible at the reference objective, the
			// re-solved objective can only tie or improve, so the step is
			// proven without a re-solve. This is the common case on a tie
			// plateau — a component off the critical path sheds spare
			// capacity without moving the makespan.
			if satisfiesCons(m, allCons, xc) && math.Abs(dotObj(w.objCoef, xc)-objRef) <= tieTol {
				freeSteps = true
				continue
			}
			probes++
			// Taking the first tangents at the screened point xc, which
			// holds the assignment z, keeps the probe a pure function of
			// the walk state (itself a pure function of the starting
			// assignment), so the representative stays canonical.
			r := w.fixedLP(xc)
			if r == nil || r.obj > objRef+tieTol {
				z[k]++
				xc[j] = z[k]
				break
			}
			best, freeSteps = r, false
		}
	}
	if freeSteps {
		// The walk ended on free-accepted steps: re-solve the final
		// assignment so the continuous part is a function of the assignment
		// alone, falling back to the screened point (feasible at the
		// reference objective by construction) if the LP gives out.
		if r := w.fixedLP(xc); r != nil && r.obj <= objRef+tieTol {
			best = r
		} else {
			best = &fixedSolve{x: append([]float64(nil), xc...), obj: dotObj(w.objCoef, xc)}
		}
	}
	return snapInts(best.x, intVars), best.obj, true
}

// intOnlyCons lists the model constraints whose bodies reference integer
// variables exclusively, so a candidate integer assignment can be screened
// without touching the continuous part.
func intOnlyCons(m *model.Model, intVars []int) []int {
	isInt := make(map[int]bool, len(intVars))
	for _, j := range intVars {
		isInt[j] = true
	}
	var out []int
consLoop:
	for i := range m.Cons {
		vars := expr.Vars(m.Cons[i].Body)
		if len(vars) == 0 {
			continue
		}
		for _, v := range vars {
			if !isInt[v] {
				continue consLoop
			}
		}
		out = append(out, i)
	}
	return out
}

// satisfiesCons evaluates the listed constraints at x.
func satisfiesCons(m *model.Model, cons []int, x []float64) bool {
	const tol = 1e-6
	for _, i := range cons {
		c := &m.Cons[i]
		v := c.Body.Eval(x)
		switch c.Sense {
		case model.LE:
			if v > c.RHS+tol {
				return false
			}
		case model.GE:
			if v < c.RHS-tol {
				return false
			}
		default:
			if math.Abs(v-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// fixedSolve is the answer to one fixed-integer subproblem: the best
// continuous completion of an integer assignment.
type fixedSolve struct {
	x   []float64
	obj float64
}

// cutAt linearizes nonlinear row i at x, ∇g(x)ᵀ(y−x) + g(x) ≤ 0, as one
// unitRow, from one forward and one reverse sweep of the row's tape. The
// constant g(x) − Σ ∂g/∂xⱼ·xⱼ runs over the nonzero partials in ascending j.
// ok=false when the gradient vanishes or a coefficient is not finite (a
// component time evaluated at a pole).
func (w *work) cutAt(i int, x []float64) (lp.Constraint, bool) {
	tp := w.tapes[i]
	constant := tp.Eval(x)
	grad := tp.Reverse()
	coef := make([]float64, w.m.NumVars())
	scale := 0.0
	for k, j := range tp.Vars() {
		g := grad[k]
		if g == 0 {
			continue
		}
		coef[j] = g
		constant -= g * x[j]
		scale = math.Max(scale, math.Abs(g))
	}
	if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) ||
		math.IsInf(constant, 0) || math.IsNaN(constant) {
		return lp.Constraint{}, false
	}
	return unitRow(lp.Constraint{Coef: coef, Sense: lp.LE, RHS: -constant}), true
}

// unitRow scales an LP row to unit max-norm. Every row the search hands
// the dense simplex goes through it: Table I rows span slopes near 1e6 per
// node (a cut where a component curve is steep, at n = 1) and selection-set
// weights in the thousands beside unit coefficients, and against the
// simplex's absolute pivot and feasibility tolerances such rows make it
// return optima that a feasible point of the same LP beats.
func unitRow(c lp.Constraint) lp.Constraint {
	scale := 0.0
	for _, v := range c.Coef {
		scale = math.Max(scale, math.Abs(v))
	}
	if scale == 0 {
		return c
	}
	for j := range c.Coef {
		c.Coef[j] /= scale
	}
	c.RHS /= scale
	return c
}

// fixedLP solves the fixed-integer subproblem at the assignment held in the
// integer entries of z by Kelley's cutting-plane method: an LP over the
// linear rows and a tangent of every nonlinear row at z, re-solved with a
// tangent at the LP point of each row that point violates by more than
// feasTol. When the nonlinear rows are affine in the variables left free,
// a tangent at z is the row itself, whatever z's continuous entries hold,
// and the first round is the subproblem's exact optimum. The point is held
// to the model itself before it can become an incumbent. nil means the
// assignment is infeasible, or the simplex or the rounds gave out first.
func (w *work) fixedLP(z []float64) *fixedSolve {
	m := w.m
	n := m.NumVars()
	p := &lp.Problem{
		NumVars: n,
		Obj:     w.objCoef,
		Cons:    append(make([]lp.Constraint, 0, len(w.linCons)+len(w.nlCons)), w.linCons...),
		Lower:   make([]float64, n),
		Upper:   make([]float64, n),
	}
	for j, v := range m.Vars {
		p.Lower[j], p.Upper[j] = v.Lower, v.Upper
		if v.Type != model.Continuous {
			p.Lower[j], p.Upper[j] = z[j], z[j]
		}
	}
	ws := lp.NewWarmSolver(p)
	x := z
	for round := 0; round < maxCutRoundsPerNode; round++ {
		added := 0
		for i := range w.nlCons {
			if round > 0 && w.tapes[i].Eval(x) <= feasTol {
				continue
			}
			if c, ok := w.cutAt(i, x); ok {
				ws.AddConstraint(c.Coef, c.Sense, c.RHS)
				added++
			}
		}
		if round > 0 && added == 0 {
			return nil // a linear row or bound rejects the point: no cut helps
		}
		sol, err := ws.Solve()
		w.subLPs++
		if err != nil || sol.Status != lp.Optimal {
			return nil
		}
		for _, j := range m.IntegerVars() {
			sol.X[j] = z[j]
		}
		if m.FeasibilityError(sol.X) <= feasTol {
			return &fixedSolve{x: sol.X, obj: dotObj(w.objCoef, sol.X)}
		}
		x = sol.X
	}
	return nil
}

// rescueDive manufactures a feasible incumbent after a deadline fires with
// none found: integer variables are fixed from the given relaxation point
// (SOS-1 sets pick their largest selector so the set stays consistent) and a
// single fixed-integer subproblem is solved over the remaining continuous
// variables. Best-effort: returns ok=false when the dive is infeasible.
func rescueDive(w *work, lastX []float64) (x []float64, obj float64, ok bool) {
	if lastX == nil {
		return nil, 0, false
	}
	m := w.m
	z := append([]float64(nil), lastX...)
	inSOS := map[int]bool{}
	for _, s := range m.SOS {
		// Snap the target to the largest allowed weight not above its
		// relaxation value (falling back to the smallest weight), so that
		// ≤-capacity constraints the relaxation satisfied stay satisfied.
		best := 0
		for k, wt := range s.Weights {
			if wt <= lastX[s.Target]+1e-9 && wt >= s.Weights[best] {
				best = k
			}
		}
		for k, sel := range s.Selectors {
			inSOS[sel] = true
			z[sel] = 0
			if k == best {
				z[sel] = 1
			}
		}
		inSOS[s.Target] = true
		z[s.Target] = s.Weights[best]
	}
	for _, j := range m.IntegerVars() {
		if inSOS[j] {
			continue
		}
		// Floor, not round: the relaxation point satisfies every capacity
		// constraint, and with the positive coefficients of HSLB models
		// rounding down preserves that while rounding up may not.
		v := math.Floor(lastX[j] + 1e-9)
		if lo := m.Vars[j].Lower; v < lo {
			v = math.Ceil(lo - 1e-9)
		}
		if hi := m.Vars[j].Upper; v > hi {
			v = math.Floor(hi + 1e-9)
		}
		z[j] = v
	}
	fs := w.fixedLP(z)
	if fs == nil {
		return nil, 0, false
	}
	return fs.x, fs.obj, true
}

// unboundedNonlinearVar returns the first variable that appears under a
// nonlinear operator in the rows with an infinite bound, or nil. Add, Neg,
// Const, Var and a Mul with at most one variable-carrying factor pass
// linearity through to their children; every other node puts all of its
// variables under a nonlinear operator.
func unboundedNonlinearVar(m *model.Model, rows []model.Constraint) *model.Variable {
	var found *model.Variable
	var walk func(e expr.Expr, nonlinear bool)
	walk = func(e expr.Expr, nonlinear bool) {
		switch t := e.(type) {
		case expr.Const:
			return
		case expr.Var:
			v := &m.Vars[t.Index]
			if nonlinear && found == nil && (math.IsInf(v.Lower, 0) || math.IsInf(v.Upper, 0)) {
				found = v
			}
			return
		case expr.Add, expr.Neg:
		case expr.Mul:
			carriers := 0
			for _, f := range t.Factors {
				if expr.MaxVarIndex(f) >= 0 {
					carriers++
				}
			}
			nonlinear = nonlinear || carriers > 1
		default:
			nonlinear = true
		}
		for _, c := range expr.Children(e) {
			walk(c, nonlinear)
		}
	}
	for i := range rows {
		walk(rows[i].Body, false)
	}
	return found
}

// work is the internal minimization-form model.
type work struct {
	m        *model.Model // minimization sense, linear objective
	orig     *model.Model
	negate   bool // original model maximized
	etaAdded bool // epigraph variable appended for a nonlinear objective
	nOrig    int
	objCoef  []float64 // linear objective over work vars
	linCons  []lp.Constraint
	nlCons   []model.Constraint // nonlinear inequality constraints, body ≤ rhs form
	tapes    []*expr.Tape       // nlCons[i].Body compiled, owned by this solve
	subLPs   int                // fixed-integer LP solves (Result.NLPSolves)
}

// prepare normalizes the model: minimization sense, linear objective via an
// epigraph variable when needed, nonlinear constraints canonicalized to
// g(x) ≤ 0 form, linear constraints compiled for the LP. A variable under a
// nonlinear operator with an infinite bound is an error.
func prepare(m *model.Model) (*work, error) {
	w := &work{orig: m, nOrig: m.NumVars()}
	wm := m.Clone()
	if wm.Sense == model.Maximize {
		w.negate = true
		wm.Objective = expr.Simplify(expr.Neg{Arg: wm.Objective})
		wm.Sense = model.Minimize
	}
	if !expr.IsLinear(wm.Objective) {
		// Wide-but-finite epigraph bounds keep every LP relaxation bounded
		// even before outer-approximation cuts exist.
		eta := wm.AddVar("_eta", model.Continuous, -1e12, 1e12)
		wm.AddConstraint("_epigraph", expr.Sub(wm.Objective, eta), model.LE, 0)
		wm.Objective = eta
		wm.Sense = model.Minimize
		w.etaAdded = true
	}
	w.m = wm

	n := wm.NumVars()
	objAff, _ := expr.AsAffine(wm.Objective)
	w.objCoef = make([]float64, n)
	for i, c := range objAff.Coef {
		w.objCoef[i] = c
	}

	for i := range wm.Cons {
		c := wm.Cons[i]
		if c.IsLinear() {
			a, _ := expr.AsAffine(c.Body)
			coef := make([]float64, n)
			for j, v := range a.Coef {
				coef[j] = v
			}
			var sense lp.Sense
			switch c.Sense {
			case model.LE:
				sense = lp.LE
			case model.GE:
				sense = lp.GE
			default:
				sense = lp.EQ
			}
			w.linCons = append(w.linCons, unitRow(lp.Constraint{Coef: coef, Sense: sense, RHS: c.RHS - a.Constant}))
			continue
		}
		switch c.Sense {
		case model.EQ:
			return nil, ErrNonlinearEquality
		case model.LE:
			w.nlCons = append(w.nlCons, model.Constraint{
				Name: c.Name, Body: expr.Sub(c.Body, expr.C(c.RHS)), Sense: model.LE, RHS: 0,
			})
		case model.GE:
			w.nlCons = append(w.nlCons, model.Constraint{
				Name: c.Name, Body: expr.Sub(expr.C(c.RHS), c.Body), Sense: model.LE, RHS: 0,
			})
		}
	}
	if v := unboundedNonlinearVar(wm, w.nlCons); v != nil {
		return nil, fmt.Errorf("minlp: variable %q appears under a nonlinear operator, so it needs finite bounds, not [%g, %g]", v.Name, v.Lower, v.Upper)
	}
	for i := range w.nlCons {
		w.tapes = append(w.tapes, expr.Compile(w.nlCons[i].Body))
	}
	return w, nil
}

// restore maps a work-space result back to the original model's variables
// and objective sense.
func (w *work) restore(r *Result) *Result {
	if r.X != nil {
		r.X = r.X[:w.nOrig]
		r.Obj = w.orig.Objective.Eval(r.X)
	}
	return r
}

// nlViolation returns the worst nonlinear-constraint violation at x.
func (w *work) nlViolation(x []float64) float64 {
	worst := 0.0
	for _, tp := range w.tapes {
		if v := tp.Eval(x); v > worst {
			worst = v
		}
	}
	return worst
}

// ---- shared branch-and-bound machinery ----

type node struct {
	lower, upper []float64
	bound        float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// pruneGap returns the effective pruning threshold below the incumbent.
func pruneGap(opt Options, incumbent float64) float64 {
	g := gapTol
	if opt.RelGap > 0 && !math.IsInf(incumbent, 0) {
		g += opt.RelGap * math.Abs(incumbent)
	}
	return g
}

func rootNode(m *model.Model) *node {
	nd := &node{
		lower: make([]float64, m.NumVars()),
		upper: make([]float64, m.NumVars()),
		bound: math.Inf(-1),
	}
	for i, v := range m.Vars {
		nd.lower[i], nd.upper[i] = v.Lower, v.Upper
	}
	return nd
}

func cloneNode(nd *node) *node {
	return &node{
		lower: append([]float64(nil), nd.lower...),
		upper: append([]float64(nil), nd.upper...),
		bound: nd.bound,
	}
}

// clampToNode snaps x into the node's box in place. Simplex solutions can
// drift a hair outside their bounds after many pivots; without the snap a
// value like 0.99999 (lower bound 1) reads as "fractional" and branching
// would create an empty child interval.
func clampToNode(x []float64, nd *node) {
	for i := range x {
		if x[i] < nd.lower[i] {
			x[i] = nd.lower[i]
		}
		if x[i] > nd.upper[i] {
			x[i] = nd.upper[i]
		}
	}
}

func pickFractional(x []float64, intVars []int, tol float64) int {
	best, bestDist := -1, tol
	for _, j := range intVars {
		f := math.Abs(x[j] - math.Round(x[j]))
		if f > bestDist {
			best, bestDist = j, f
		}
	}
	return best
}

func branchVar(nd *node, j int, val float64) (*node, *node) {
	left := cloneNode(nd)
	right := cloneNode(nd)
	left.upper[j] = math.Floor(val)
	right.lower[j] = math.Ceil(val)
	return left, right
}

// branchSOS splits the first unresolved SOS-1 set around the weighted
// average of the selected values: selectors at or below the split weight
// go left, the rest right, so each child keeps a contiguous block of the
// set's allowed values (the SOS branching rule of paper §III-E).
func branchSOS(m *model.Model, nd *node, x []float64, tol float64) (*node, *node, bool) {
	for _, s := range m.SOS {
		kmin, kmax := -1, -1
		for k, sel := range s.Selectors {
			if nd.upper[sel] == 0 {
				continue
			}
			if x[sel] > tol {
				if kmin < 0 {
					kmin = k
				}
				kmax = k
			}
		}
		if kmin < 0 || kmin == kmax {
			continue
		}
		avg := 0.0
		for k, sel := range s.Selectors {
			avg += x[sel] * s.Weights[k]
		}
		r := kmin
		for k := kmin; k < kmax; k++ {
			if s.Weights[k] <= avg {
				r = k
			}
		}
		if r >= kmax {
			r = kmax - 1
		}
		left := cloneNode(nd)
		right := cloneNode(nd)
		for k, sel := range s.Selectors {
			if k > r {
				left.upper[sel] = 0
			} else {
				right.upper[sel] = 0
			}
		}
		return left, right, true
	}
	return nil, nil, false
}
