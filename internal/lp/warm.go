package lp

import (
	"context"
	"math"
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
	BoundFlips   int // dual long steps resolved by a bound flip
}

// NewWarmSolver wraps the problem. The problem is NOT copied: the caller
// may keep appending constraints via AddConstraint (only — in-place edits
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

// AddConstraint appends coef·x sense rhs to the underlying problem and,
// when a cached basis exists, patches the tableau so the next Solve can
// start warm. Equality rows cannot join a finished basis (their slack is
// fixed at zero, so the appended row has no basic variable to own it) and
// drop the cache instead.
func (ws *WarmSolver) AddConstraint(coef []float64, sense Sense, rhs float64) {
	ws.p.AddConstraint(coef, sense, rhs)
	if ws.t != nil {
		c := ws.p.Cons[len(ws.p.Cons)-1]
		if !ws.t.appendRows([]Constraint{c}) {
			ws.t = nil
		}
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

// dualSimplex restores primal feasibility after appendRows left basic
// variables outside their bounds, pivoting on the most-violated row each
// iteration while choosing the entering column by the smallest |dj/α|
// ratio (which preserves dual feasibility up to degeneracy; the caller's
// primal clean-up pass mops up the rest). Long steps that would carry the
// entering variable past its opposite bound are resolved as bound flips
// without a pivot. Returns the pivot and flip counts and a status:
// Optimal (feasible again), Infeasible (a row's violation cannot be
// reduced — the appended cuts are inconsistent), IterationLimit or Canceled.
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
		r, viol, below := -1, feasTol, false
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

		// Entering column: eligible sign pattern, best (smallest) dual
		// ratio |dj/α|.
		row := t.a[r]
		bestJ, bestDir, bestRatio := -1, 0.0, math.Inf(1)
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
			ratio := math.Abs(t.dj[j] / alpha)
			if ratio < bestRatio-1e-12 ||
				(ratio < bestRatio+1e-12 && (bestJ < 0 || j < bestJ)) {
				bestJ, bestDir, bestRatio = j, dir, ratio
			}
		}
		if bestJ < 0 {
			// No column can move this row's variable toward its bound: the
			// row is unsatisfiable — the appended constraints conflict.
			return pivots, flips, Infeasible
		}

		b := t.basis[r]
		var target float64
		if below {
			target = t.lower[b]
		} else {
			target = t.upper[b]
		}
		// Entering movement that lands beta[r] exactly on target.
		mu := (t.beta[r] - target) / (row[bestJ] * bestDir)

		if rng := t.upper[bestJ] - t.lower[bestJ]; mu > rng {
			// Long step: the entering variable hits its opposite bound
			// first. Flip it and keep working on the same violation.
			for i := 0; i < t.m; i++ {
				t.beta[i] -= t.a[i][bestJ] * bestDir * rng
			}
			t.atUpper[bestJ] = bestDir > 0
			flips++
			continue
		}

		// Pivot: mirror step()'s mechanics.
		for i := 0; i < t.m; i++ {
			t.beta[i] -= t.a[i][bestJ] * bestDir * mu
		}
		var enterVal float64
		if bestDir > 0 {
			enterVal = t.lower[bestJ] + mu
		} else {
			enterVal = t.upper[bestJ] - mu
		}
		t.inBasis[b] = -1
		t.atUpper[b] = !below
		t.basis[r] = bestJ
		t.inBasis[bestJ] = r
		t.beta[r] = enterVal

		piv := row[bestJ]
		inv := 1 / piv
		for kk := 0; kk < t.n; kk++ {
			row[kk] *= inv
		}
		for i := 0; i < t.m; i++ {
			if i == r {
				continue
			}
			f := t.a[i][bestJ]
			if f == 0 {
				continue
			}
			ri := t.a[i]
			for kk := 0; kk < t.n; kk++ {
				ri[kk] -= f * row[kk]
			}
			ri[bestJ] = 0
		}
		if f := t.dj[bestJ]; f != 0 {
			for kk := 0; kk < t.n; kk++ {
				t.dj[kk] -= f * row[kk]
			}
			t.dj[bestJ] = 0
		}
		pivots++
	}
}
