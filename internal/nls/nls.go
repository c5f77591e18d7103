// Package nls implements bound-constrained nonlinear least squares via the
// Levenberg–Marquardt algorithm with optional multistart.
//
// HSLB step 2 ("Fit", Table II line 10) solves, for each CESM component j,
//
//	min_{a,b,c,d ≥ 0}  Σ_i (y_ji − a/n_ji − b·n_ji^c − d)²
//
// which is a small nonconvex least-squares problem; the paper notes that
// different starting points reach different local optima of similar quality.
// MultiStart reproduces that workflow.
//
// Solve allocates its buffers (residuals, the forward-difference Jacobian,
// JᵀJ, the damped system, its Cholesky factor and the step) once and then
// iterates without allocating: JᵀJ and Jᵀr are formed in place and the
// damped normal equations are solved in place by linalg.SolveSPD. Solve
// calls the residual function sequentially, so a Residuals closure may keep
// per-problem caches without locking.
package nls

import (
	"errors"
	"fmt"
	"math"

	"hslb/internal/linalg"
)

// Residuals fills r (length NumResiduals) with the residual vector at
// parameters p.
type Residuals func(p []float64, r []float64)

// Problem describes a least-squares problem min ‖r(p)‖² with box bounds.
type Problem struct {
	NumParams    int
	NumResiduals int
	F            Residuals
	// Lower/Upper are optional elementwise bounds (nil means unbounded).
	Lower, Upper []float64
}

// Options configures the LM iteration.
type Options struct {
	MaxIter int // default 200
}

// The iteration's fixed constants.
const (
	tol      = 1e-10 // gradient/step tolerance
	initDamp = 1e-3  // initial damping
	diffStep = 1e-7  // relative finite-difference step
)

// Result is the outcome of a fit.
type Result struct {
	Params     []float64
	SSR        float64 // sum of squared residuals
	Iterations int
}

// ErrBadProblem reports an inconsistent problem definition.
var ErrBadProblem = errors.New("nls: malformed problem")

// Solve runs projected Levenberg–Marquardt from p0.
func Solve(prob *Problem, p0 []float64, opt Options) (*Result, error) {
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 200
	}
	if err := check(prob, p0); err != nil {
		return nil, err
	}
	n := prob.NumParams
	p := append([]float64(nil), p0...)
	clamp(p, prob.Lower, prob.Upper)

	w := newWorkspace(n, prob.NumResiduals)
	r, rTrial, pTrial, g, step := w.r, w.rTrial, w.pTrial, w.g, w.step
	prob.F(p, r)
	ssr := dot(r, r)

	lambda := initDamp
	iter := 0
	converged := false

	for ; iter < maxIter; iter++ {
		w.jacobian(prob, p)
		// Normal equations: (JᵀJ + λ·diag(JᵀJ))·δ = −Jᵀr.
		w.normalEquations()
		if normInf(g) < tol {
			converged = true
			break
		}
		improved := false
		for try := 0; try < 40; try++ {
			a := w.damped.Data
			copy(a, w.jtj)
			for i := 0; i < n; i++ {
				d := a[i*n+i]
				if d <= 0 {
					d = 1
				}
				a[i*n+i] += lambda * d
			}
			for i, gi := range g {
				step[i] = -1 * gi
			}
			if err := linalg.SolveSPD(w.damped, w.chol, step); err != nil {
				lambda *= 10
				continue
			}
			for i := range pTrial {
				pTrial[i] = p[i] + step[i]
			}
			clamp(pTrial, prob.Lower, prob.Upper)
			prob.F(pTrial, rTrial)
			ssrTrial := dot(rTrial, rTrial)
			if ssrTrial < ssr && allFinite(rTrial) {
				stepNorm := 0.0
				for i := range p {
					stepNorm = math.Max(stepNorm, math.Abs(pTrial[i]-p[i]))
				}
				copy(p, pTrial)
				copy(r, rTrial)
				if ssr-ssrTrial < tol*(1+ssr) && stepNorm < math.Sqrt(tol) {
					converged = true
				}
				ssr = ssrTrial
				lambda = math.Max(1e-12, lambda/3)
				improved = true
				break
			}
			lambda *= 10
			if lambda > 1e14 {
				break
			}
		}
		if converged {
			break
		}
		if !improved {
			converged = true // damping exhausted: local minimum to precision
			break
		}
	}
	return &Result{Params: p, SSR: ssr, Iterations: iter}, nil
}

// workspace holds every buffer one Solve needs, carved from one allocation.
type workspace struct {
	n             int
	r, rTrial, rt []float64 // residuals at p, at the trial point, at a difference point
	pTrial, pt    []float64 // the trial point and the difference point
	jac           []float64 // m×n row-major: jac[i*n+j] = ∂r_i/∂p_j
	jtj           []float64 // n×n JᵀJ
	g             []float64 // Jᵀr
	step          linalg.Vector
	damped, chol  *linalg.Matrix
}

func newWorkspace(n, m int) *workspace {
	buf := make([]float64, 3*m+m*n+3*n*n+4*n)
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	return &workspace{
		n: n,
		r: take(m), rTrial: take(m), rt: take(m),
		pTrial: take(n), pt: take(n),
		jac: take(m * n), jtj: take(n * n), g: take(n), step: take(n),
		damped: &linalg.Matrix{Rows: n, Cols: n, Data: take(n * n)},
		chol:   &linalg.Matrix{Rows: n, Cols: n, Data: take(n * n)},
	}
}

// jacobian fills w.jac with ∂r/∂p by forward differences, reusing the
// residual vector w.r already evaluated at p.
func (w *workspace) jacobian(prob *Problem, p []float64) {
	n := w.n
	copy(w.pt, p)
	for j := 0; j < n; j++ {
		h := diffStep * math.Max(1, math.Abs(p[j]))
		// Respect an upper bound by stepping backwards when pinned.
		if prob.Upper != nil && p[j]+h > prob.Upper[j] {
			h = -h
		}
		w.pt[j] = p[j] + h
		prob.F(w.pt, w.rt)
		w.pt[j] = p[j]
		for i, rti := range w.rt {
			w.jac[i*n+j] = (rti - w.r[i]) / h
		}
	}
}

// normalEquations forms JᵀJ and Jᵀr in place. Each entry sums its products
// from 0 in row order and skips a zero left factor, so the result is bit for
// bit that of the dense products Jᵀ·J and Jᵀ·r.
func (w *workspace) normalEquations() {
	n, jac := w.n, w.jac
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := i; k < len(jac); k += n {
				if jki := jac[k]; jki != 0 {
					s += jki * jac[k-i+j]
				}
			}
			w.jtj[i*n+j] = s
		}
		s := 0.0
		for k, rk := range w.r {
			if rk != 0 {
				s += jac[k*n+i] * rk
			}
		}
		w.g[i] = s
	}
}

// MultiStart runs Solve from each starting point and returns the best fit.
func MultiStart(prob *Problem, starts [][]float64, opt Options) (*Result, error) {
	if len(starts) == 0 {
		return nil, fmt.Errorf("%w: no starting points", ErrBadProblem)
	}
	var best *Result
	var firstErr error
	for _, s := range starts {
		res, err := Solve(prob, s, opt)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || res.SSR < best.SSR {
			best = res
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// RSquared returns the coefficient of determination of predictions vs
// observations. A perfect fit gives 1; a fit no better than the mean gives 0.
func RSquared(observed, predicted []float64) float64 {
	if len(observed) != len(predicted) || len(observed) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, y := range observed {
		mean += y
	}
	mean /= float64(len(observed))
	ssTot, ssRes := 0.0, 0.0
	for i, y := range observed {
		ssTot += (y - mean) * (y - mean)
		ssRes += (y - predicted[i]) * (y - predicted[i])
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// CurveProblem builds a Problem from a pointwise model y ≈ f(p, x) and data.
func CurveProblem(f func(p []float64, x float64) float64, xs, ys []float64, numParams int, lower, upper []float64) *Problem {
	return &Problem{
		NumParams:    numParams,
		NumResiduals: len(xs),
		F: func(p []float64, r []float64) {
			for i := range xs {
				r[i] = ys[i] - f(p, xs[i])
			}
		},
		Lower: lower,
		Upper: upper,
	}
}

func check(prob *Problem, p0 []float64) error {
	if prob.NumParams <= 0 || prob.NumResiduals <= 0 || prob.F == nil {
		return fmt.Errorf("%w: empty problem", ErrBadProblem)
	}
	if len(p0) != prob.NumParams {
		return fmt.Errorf("%w: p0 has %d entries, want %d", ErrBadProblem, len(p0), prob.NumParams)
	}
	if prob.Lower != nil && len(prob.Lower) != prob.NumParams {
		return fmt.Errorf("%w: Lower length mismatch", ErrBadProblem)
	}
	if prob.Upper != nil && len(prob.Upper) != prob.NumParams {
		return fmt.Errorf("%w: Upper length mismatch", ErrBadProblem)
	}
	return nil
}

func clamp(p, lower, upper []float64) {
	for i := range p {
		if lower != nil && p[i] < lower[i] {
			p[i] = lower[i]
		}
		if upper != nil && p[i] > upper[i] {
			p[i] = upper[i]
		}
	}
}

func normInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
