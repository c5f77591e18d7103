// Package perf implements the paper's component performance model
// (Table II):
//
//	T_j(n) = T_sca(n) + T_nln(n) + T_ser = a_j/n_j + b_j·n_j^c_j + d_j
//
// together with the constrained least-squares fitting step of the HSLB
// algorithm (step 2), term decomposition for Figure 2, R² fit diagnostics,
// and the benchmark sampling-plan advice of §III-C.
package perf

import (
	"errors"
	"fmt"
	"math"

	"hslb/internal/expr"
	"hslb/internal/nls"
)

// Model is the fitted performance function T(n) = A/n + B·n^C + D.
type Model struct {
	A float64 // scalable (perfectly parallel) work, seconds·nodes
	B float64 // nonlinear term coefficient
	C float64 // nonlinear term exponent
	D float64 // serial time, seconds
}

// Eval returns the predicted wall-clock time on n nodes.
func (m Model) Eval(n float64) float64 {
	return m.A/n + m.B*math.Pow(n, m.C) + m.D
}

// ScalableTerm returns T_sca(n) = A/n, the perfectly scaling contribution.
func (m Model) ScalableTerm(n float64) float64 { return m.A / n }

// NonlinearTerm returns T_nln(n) = B·n^C, the partially parallel /
// communication contribution.
func (m Model) NonlinearTerm(n float64) float64 { return m.B * math.Pow(n, m.C) }

// SerialTerm returns T_ser = D, the Amdahl serial floor.
func (m Model) SerialTerm() float64 { return m.D }

// Expr builds the model as an expression over the node-count variable v,
// for use in the MINLP allocation models of Table I.
func (m Model) Expr(v expr.Var) expr.Expr {
	terms := []expr.Expr{expr.Div{Num: expr.C(m.A), Den: v}}
	if m.B != 0 {
		terms = append(terms, expr.Prod(expr.C(m.B), expr.Pow{Base: v, Exponent: expr.C(m.C)}))
	}
	terms = append(terms, expr.C(m.D))
	return expr.Sum(terms...)
}

// IsConvex reports whether the model is convex on n > 0, which is what lets
// the MINLP branch-and-bound certify a global optimum (paper §III-E).
func (m Model) IsConvex() bool {
	return m.A >= 0 && (m.B == 0 || m.C >= 1 || m.C == 0)
}

func (m Model) String() string {
	return fmt.Sprintf("T(n) = %.6g/n + %.6g·n^%.4g + %.6g", m.A, m.B, m.C, m.D)
}

// Sample is one benchmark observation: measured wall-clock time on a node
// count (HSLB step 1 output, the y_ji of Table II).
type Sample struct {
	Nodes int
	Time  float64
}

// FitOptions configures the least-squares fit.
type FitOptions struct {
	// ConvexExponent constrains C >= 1 so the fitted function is convex and
	// the downstream MINLP solve retains its global-optimality guarantee.
	// Without it C >= 0 as in the paper (§III-C chooses positive c).
	ConvexExponent bool
}

// fitMaxIter bounds the Levenberg–Marquardt iterations of each multistart
// seed, in Fit and FitFamily alike.
const fitMaxIter = 400

// FitResult carries fit diagnostics alongside the model.
type FitResult struct {
	Model Model
	R2    float64
	SSR   float64
}

// ErrTooFewSamples is returned when fewer than four observations are
// provided; the paper's experience is that at least four node counts are
// needed to capture a component's scaling curvature (§III-C).
var ErrTooFewSamples = errors.New("perf: need at least 4 samples to fit the 4-parameter model")

// Fit solves the constrained least-squares problem of Table II (line 10)
// with positivity bounds (line 11) and multistart.
func Fit(samples []Sample, opt FitOptions) (*FitResult, error) {
	if len(samples) < 4 {
		return nil, ErrTooFewSamples
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	maxY, minN, maxN := 0.0, math.Inf(1), 0.0
	for i, s := range samples {
		if s.Nodes <= 0 {
			return nil, fmt.Errorf("perf: sample %d has non-positive node count %d", i, s.Nodes)
		}
		if s.Time <= 0 || math.IsNaN(s.Time) || math.IsInf(s.Time, 0) {
			return nil, fmt.Errorf("perf: sample %d has invalid time %v", i, s.Time)
		}
		xs[i] = float64(s.Nodes)
		ys[i] = s.Time
		maxY = math.Max(maxY, s.Time)
		minN = math.Min(minN, xs[i])
		maxN = math.Max(maxN, xs[i])
	}

	cMin := 0.0
	if opt.ConvexExponent {
		cMin = 1.0
	}
	lower := []float64{0, 0, cMin, 0}
	upper := []float64{math.Inf(1), math.Inf(1), 3, math.Inf(1)}
	pows := powCache{xs: xs}
	prob := &nls.Problem{
		NumParams:    4,
		NumResiduals: len(xs),
		F: func(p []float64, r []float64) {
			pw := pows.at(p[2])
			for i, n := range xs {
				r[i] = ys[i] - (p[0]/n + p[1]*pw[i] + p[3])
			}
		},
		Lower: lower,
		Upper: upper,
	}

	// Heuristic starts spanning serial-dominated to scaling-dominated fits.
	// The paper notes distinct local optima of similar prediction quality;
	// multistart picks the best.
	aGuess := ys[0] * xs[0] // assume mostly scalable at the smallest count
	starts := [][]float64{
		{aGuess, 1e-6, math.Max(1, cMin), 0.5 * minTime(ys)},
		{aGuess / 2, 1e-4, math.Max(1, cMin), 0.1 * maxY},
		{aGuess * 2, 1e-8, math.Max(1.5, cMin), 0.9 * minTime(ys)},
		{maxY * minN, 1e-5, math.Max(1.2, cMin), 0},
		{maxY * maxN / 4, 1e-3, math.Max(1, cMin), minTime(ys)},
		{aGuess, 0, math.Max(1, cMin), 0},
	}
	res, err := nls.MultiStart(prob, starts, nls.Options{MaxIter: fitMaxIter})
	if err != nil {
		return nil, err
	}
	m := Model{A: res.Params[0], B: res.Params[1], C: res.Params[2], D: res.Params[3]}
	preds := make([]float64, len(xs))
	for i, n := range xs {
		preds[i] = m.Eval(n)
	}
	return &FitResult{
		Model: m,
		R2:    nls.RSquared(ys, preds),
		SSR:   res.SSR,
	}, nil
}

// powCache holds n^c over the samples' node counts for the last two
// exponents Fit's residuals were evaluated at, keyed by the exponent's bits.
// The forward-difference Jacobian's a, b and d columns and the accepted step
// reuse the current point's powers, so only the c column and each trial step
// call math.Pow. Each Fit owns its cache; the solver calls the residuals
// sequentially.
type powCache struct {
	xs   []float64
	key  [2]uint64
	pw   [2][]float64
	last int // slot of the most recent exponent
}

func (c *powCache) at(e float64) []float64 {
	k := math.Float64bits(e)
	for s := range c.pw {
		if c.pw[s] != nil && c.key[s] == k {
			c.last = s
			return c.pw[s]
		}
	}
	s := 1 - c.last
	if c.pw[s] == nil {
		c.pw[s] = make([]float64, len(c.xs))
	}
	for i, n := range c.xs {
		c.pw[s][i] = math.Pow(n, e)
	}
	c.key[s], c.last = k, s
	return c.pw[s]
}

func minTime(ys []float64) float64 {
	m := math.Inf(1)
	for _, y := range ys {
		m = math.Min(m, y)
	}
	return m
}

// SamplingPlan returns the benchmark node counts recommended by §III-C: the
// smallest count allowed by memory, the largest available, and
// geometrically spaced interior points to capture curvature. points must be
// >= 2; the paper recommends at least 4 in total, more for noisy components.
func SamplingPlan(minNodes, maxNodes, points int) []int {
	if points < 2 {
		points = 2
	}
	if minNodes < 1 {
		minNodes = 1
	}
	if maxNodes < minNodes {
		maxNodes = minNodes
	}
	out := make([]int, 0, points)
	ratio := float64(maxNodes) / float64(minNodes)
	for i := 0; i < points; i++ {
		f := float64(i) / float64(points-1)
		n := int(math.Round(float64(minNodes) * math.Pow(ratio, f)))
		if len(out) > 0 && n <= out[len(out)-1] {
			n = out[len(out)-1] + 1
		}
		if n > maxNodes && len(out) > 0 && out[len(out)-1] == maxNodes {
			break
		}
		out = append(out, n)
	}
	out[len(out)-1] = maxNodes
	return out
}
