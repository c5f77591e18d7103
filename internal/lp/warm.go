package lp

import (
	"cmp"
	"context"
	"math"
	"slices"
)

// WarmSolver solves a sequence of LPs that differ only by appended
// constraints, re-solving warm from the previous optimal basis instead of
// from scratch. This is the access pattern of the LP/NLP branch-and-bound:
// every outer-approximation round adds a handful of cuts to the node LP and
// re-solves, and after the first solve the old optimum is primal-infeasible
// in at most the new rows — a few dual simplex pivots away from the new
// optimum, versus a full two-phase cold start.
//
// The warm path is exact, not approximate: after the dual simplex restores
// primal feasibility, a primal clean-up pass runs to proven optimality with
// the same pivot rules as Solve, so Solve() returns the same answers a cold
// Solve(p) would (statuses and objective; the vertex can differ only where
// the LP has multiple optima). Whenever the warm path cannot be used — an
// appended equality row, a numerical failure, or a pivot-limit hit — the
// solver transparently falls back to a cold solve and re-caches that basis.
//
// A WarmSolver is not safe for concurrent use.
type WarmSolver struct {
	p     *Problem
	t     *tableau
	stats WarmStats
}

// WarmStats counts the work a WarmSolver did.
type WarmStats struct {
	ColdSolves   int // full two-phase solves (first call and fallbacks)
	WarmResolves int // solves answered from the cached basis
	DualPivots   int // dual simplex pivots across all warm re-solves
	BoundFlips   int // boxed columns the dual ratio test flipped past
}

// NewWarmSolver wraps the problem. The problem is NOT copied: the caller
// may keep appending constraints via AddConstraint(s) (only — in-place edits
// of existing rows, bounds or objective invalidate the cache silently).
func NewWarmSolver(p *Problem) *WarmSolver {
	return &WarmSolver{p: p}
}

// Stats returns the work counters so far.
func (ws *WarmSolver) Stats() WarmStats { return ws.stats }

// Sub returns the component-wise difference s − o.
func (s WarmStats) Sub(o WarmStats) WarmStats {
	return WarmStats{
		ColdSolves:   s.ColdSolves - o.ColdSolves,
		WarmResolves: s.WarmResolves - o.WarmResolves,
		DualPivots:   s.DualPivots - o.DualPivots,
		BoundFlips:   s.BoundFlips - o.BoundFlips,
	}
}

// Add accumulates o into s.
func (s *WarmStats) Add(o WarmStats) {
	s.ColdSolves += o.ColdSolves
	s.WarmResolves += o.WarmResolves
	s.DualPivots += o.DualPivots
	s.BoundFlips += o.BoundFlips
}

// AddConstraint appends coef·x sense rhs: AddConstraints with one row.
func (ws *WarmSolver) AddConstraint(coef []float64, sense Sense, rhs float64) {
	ws.AddConstraints([]Constraint{{Coef: coef, Sense: sense, RHS: rhs}})
}

// AddConstraints appends the rows to the underlying problem (copying each
// coefficient slice) and, when a cached basis exists, patches the tableau
// in one pass for the whole batch, so the next Solve can start warm.
// Equality rows cannot join a finished basis (their slack is fixed at zero,
// so the appended row has no basic variable to own it); a batch holding
// one drops the cache instead.
func (ws *WarmSolver) AddConstraints(cs []Constraint) {
	for _, c := range cs {
		ws.p.AddConstraint(c.Coef, c.Sense, c.RHS)
	}
	if ws.t != nil && !ws.t.appendRows(ws.p.Cons[len(ws.p.Cons)-len(cs):]) {
		ws.t = nil
	}
}

// Solve optimizes the current problem, warm when possible.
func (ws *WarmSolver) Solve() (*Solution, error) {
	return ws.SolveContext(context.Background())
}

// SolveContext is Solve, but polls ctx every 64 pivots and returns Status
// Canceled once it is done.
func (ws *WarmSolver) SolveContext(ctx context.Context) (*Solution, error) {
	if ws.t == nil {
		return ws.cold(ctx)
	}
	t := ws.t
	t.ctx = ctx
	pivots, flips, st := t.dualSimplex(t.objCost)
	ws.stats.DualPivots += pivots
	ws.stats.BoundFlips += flips
	if st == Infeasible {
		// The dual simplex proved a row cannot be brought within bounds:
		// the cut system is infeasible. The basis is still structurally
		// valid for further appends, but re-prove cold to keep the cached
		// state conservative.
		ws.t = nil
		return ws.cold(ctx)
	}
	if st != Optimal {
		ws.t = nil
		return ws.cold(ctx)
	}
	// Primal clean-up: the dual pivots restore feasibility; this pass
	// restores optimality (and certifies it) under the standard rules.
	if st := t.run(t.objCost); st != Optimal {
		ws.t = nil
		return ws.cold(ctx)
	}
	ws.stats.WarmResolves++
	return t.solution(ws.p), nil
}

// cold runs a full two-phase solve and caches the basis when it finishes
// Optimal.
func (ws *WarmSolver) cold(ctx context.Context) (*Solution, error) {
	ws.stats.ColdSolves++
	sol, t, err := solveKeep(ctx, ws.p)
	ws.t = t // nil unless Optimal
	return sol, err
}

// appendRows grows the tableau in place by the given constraints, keeping
// every invariant the solver relies on:
//
//   - Column layout stays [struct | slack | artificial] with one slack and
//     one artificial per row, artificials in row order, as build lays it
//     out. The k new slack columns are spliced in at the end of the slack
//     block, shifting the old artificial block right by k; the k new
//     artificials go at the very end.
//   - Each new row is reduced against the current basis (subtracting
//     multiples of the tableau rows), which is exactly multiplication by
//     the enlarged B⁻¹: the new basis matrix is block lower-triangular with
//     the new slacks basic, so old rows are unchanged and the new rows
//     carry −C·B⁻¹ in the old columns.
//   - The new row's slack becomes its basic variable, valued at the current
//     point's residual. A violated cut simply leaves that slack out of
//     bounds — the dual simplex's job.
//
// GE rows are stored negated, so every new slack has coefficient +1.
// Returns false — caller must drop the cache — for EQ rows, whose slack is
// pinned to zero and cannot serve as the row's basic variable.
func (t *tableau) appendRows(cs []Constraint) bool {
	for _, c := range cs {
		if c.Sense == EQ {
			return false
		}
	}
	k := len(cs)
	oldN := t.n
	oldM := t.m
	oldSlackEnd := t.nStruct + t.nSlack
	newN := oldN + 2*k
	remap := func(j int) int {
		if j < oldSlackEnd {
			return j
		}
		return j + k
	}

	// Current value of every old column, needed for the new rows' betas.
	vals := make([]float64, oldN)
	for j := 0; j < oldN; j++ {
		switch {
		case t.inBasis[j] >= 0:
			vals[j] = t.beta[t.inBasis[j]]
		case t.atUpper[j]:
			vals[j] = t.upper[j]
		default:
			vals[j] = t.lower[j]
		}
	}

	grow := func(src []float64) []float64 {
		out := make([]float64, newN)
		for j := 0; j < oldN; j++ {
			out[remap(j)] = src[j]
		}
		return out
	}
	t.lower = grow(t.lower)
	t.upper = grow(t.upper)
	t.objCost = grow(t.objCost)
	t.dj = grow(t.dj) // stale; rebuilt by the next computeReducedCosts
	newAtUpper := make([]bool, newN)
	newInBasis := make([]int, newN)
	for j := range newInBasis {
		newInBasis[j] = -1
	}
	for j := 0; j < oldN; j++ {
		newAtUpper[remap(j)] = t.atUpper[j]
		newInBasis[remap(j)] = t.inBasis[j]
	}
	t.atUpper, t.inBasis = newAtUpper, newInBasis
	for i := range t.basis {
		t.basis[i] = remap(t.basis[i])
	}
	for i := 0; i < oldM; i++ {
		old := t.a[i]
		row := make([]float64, newN)
		for j := 0; j < oldN; j++ {
			row[remap(j)] = old[j]
		}
		t.a[i] = row
	}

	nOrig := len(t.reflect)
	for i, c := range cs {
		row := make([]float64, newN)
		rhs := c.RHS
		for j, v := range c.Coef {
			if v == 0 {
				continue
			}
			if t.reflect[j] {
				rhs -= v * t.origUpper[j]
				row[j] = -v
			} else {
				row[j] = v
			}
		}
		for kk, j := range t.splitOf {
			row[nOrig+kk] = -c.Coef[j]
		}
		if c.Sense == GE {
			for j := 0; j < oldSlackEnd; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
		}
		sCol := oldSlackEnd + i
		row[sCol] = 1
		t.lower[sCol], t.upper[sCol] = 0, math.Inf(1)
		aCol := oldSlackEnd + k + oldM + i
		row[aCol] = 1
		t.lower[aCol], t.upper[aCol] = 0, 0 // born pinned: phase 1 is over

		// Residual (= the slack's value) at the current point, from the raw
		// row before reduction.
		s := rhs
		for j := 0; j < oldSlackEnd; j++ {
			if row[j] != 0 {
				s -= row[j] * vals[j]
			}
		}
		// Reduce against the current basis so the row is expressed in the
		// running tableau's coordinates.
		for r := 0; r < oldM; r++ {
			f := row[t.basis[r]]
			if f == 0 {
				continue
			}
			ar := t.a[r]
			for j := 0; j < newN; j++ {
				row[j] -= f * ar[j]
			}
			row[t.basis[r]] = 0
		}

		t.a = append(t.a, row)
		t.beta = append(t.beta, s)
		t.basis = append(t.basis, sCol)
		t.inBasis[sCol] = oldM + i
	}
	t.m += k
	t.n = newN
	t.nSlack += k
	return true
}

// dualCand is a column eligible to enter in one dual simplex iteration:
// moving it in direction dir carries the leaving row toward its bound, at
// the dual ratio |dj/α|.
type dualCand struct {
	j          int
	dir, ratio float64
}

// dualSimplex restores primal feasibility after appendRows left basic
// variables outside their bounds. Each iteration takes the most-violated
// row and runs the bound-flipping ratio test on it: the eligible columns
// are sorted once by their dual ratio |dj/α| (ties to the lower index) and
// walked in that order. A boxed column whose whole range still leaves the
// row violated is flipped to its other bound, one O(m) update of the basic
// values and no pivot; the first column that would carry the row past its
// bound enters the basis. The flipped columns' reduced costs change sign
// with the pivot, which their new bound makes dual feasible, so the walk
// keeps dual feasibility up to degeneracy (the caller's primal clean-up
// pass mops up the rest). Returns the pivot and flip counts and a status:
// Optimal (feasible again), Infeasible (every eligible column flipped and
// the row still violated, or none eligible — the appended cuts are
// inconsistent), IterationLimit or Canceled.
func (t *tableau) dualSimplex(c []float64) (pivots, flips int, st Status) {
	t.cost = c
	t.computeReducedCosts()
	limit := 200 + 20*(t.m+t.n)
	for iter := 0; ; iter++ {
		if iter > limit {
			return pivots, flips, IterationLimit
		}
		if iter%64 == 0 && t.ctx.Err() != nil {
			return pivots, flips, Canceled
		}
		// Most-infeasible basic variable.
		r, viol, below := -1, FeasTol, false
		for i := 0; i < t.m; i++ {
			b := t.basis[i]
			if d := t.lower[b] - t.beta[i]; d > viol {
				r, viol, below = i, d, true
			}
			if d := t.beta[i] - t.upper[b]; d > viol {
				r, viol, below = i, d, false
			}
		}
		if r < 0 {
			return pivots, flips, Optimal
		}

		// Eligible columns: the sign pattern that moves row r toward its
		// violated bound.
		row := t.a[r]
		cands := t.cands[:0]
		for j := 0; j < t.n; j++ {
			if t.inBasis[j] >= 0 || t.lower[j] == t.upper[j] {
				continue
			}
			alpha := row[j]
			if math.Abs(alpha) < pivTol {
				continue
			}
			var dir float64
			switch {
			case below && !t.atUpper[j] && alpha < 0:
				dir = 1
			case below && t.atUpper[j] && alpha > 0:
				dir = -1
			case !below && !t.atUpper[j] && alpha > 0:
				dir = 1
			case !below && t.atUpper[j] && alpha < 0:
				dir = -1
			default:
				continue
			}
			cands = append(cands, dualCand{j: j, dir: dir, ratio: math.Abs(t.dj[j] / alpha)})
		}
		t.cands = cands
		slices.SortFunc(cands, func(a, b dualCand) int {
			if c := cmp.Compare(a.ratio, b.ratio); c != 0 {
				return c
			}
			return a.j - b.j
		})

		b := t.basis[r]
		target := t.upper[b]
		if below {
			target = t.lower[b]
		}
		enter, dir, mu := -1, 0.0, 0.0
		for _, cd := range cands {
			// Entering movement that lands beta[r] exactly on target.
			mu = (t.beta[r] - target) / (row[cd.j] * cd.dir)
			if rng := t.upper[cd.j] - t.lower[cd.j]; mu > rng {
				// The column's whole range leaves the row violated: flip
				// it to its other bound and walk on.
				for i := 0; i < t.m; i++ {
					t.beta[i] -= t.a[i][cd.j] * cd.dir * rng
				}
				t.atUpper[cd.j] = cd.dir > 0
				flips++
				continue
			}
			enter, dir = cd.j, cd.dir
			break
		}
		if enter < 0 {
			// No column, or all of them at their far bounds, can bring
			// this row's variable to its bound: the appended constraints
			// conflict.
			return pivots, flips, Infeasible
		}

		// Pivot: mirror step()'s mechanics.
		for i := 0; i < t.m; i++ {
			t.beta[i] -= t.a[i][enter] * dir * mu
		}
		var enterVal float64
		if dir > 0 {
			enterVal = t.lower[enter] + mu
		} else {
			enterVal = t.upper[enter] - mu
		}
		t.inBasis[b] = -1
		t.atUpper[b] = !below
		t.basis[r] = enter
		t.inBasis[enter] = r
		t.beta[r] = enterVal

		piv := row[enter]
		inv := 1 / piv
		for kk := 0; kk < t.n; kk++ {
			row[kk] *= inv
		}
		for i := 0; i < t.m; i++ {
			if i == r {
				continue
			}
			f := t.a[i][enter]
			if f == 0 {
				continue
			}
			ri := t.a[i]
			for kk := 0; kk < t.n; kk++ {
				ri[kk] -= f * row[kk]
			}
			ri[enter] = 0
		}
		if f := t.dj[enter]; f != 0 {
			for kk := 0; kk < t.n; kk++ {
				t.dj[kk] -= f * row[kk]
			}
			t.dj[enter] = 0
		}
		pivots++
	}
}
