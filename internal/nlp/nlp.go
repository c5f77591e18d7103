// Package nlp implements a smooth nonlinear-programming solver used for the
// continuous relaxations and fixed-integer subproblems of the MINLP
// branch-and-bound (the role filterSQP plays in the paper's MINOTAUR setup).
//
// Method: an augmented-Lagrangian (PHR) outer loop with a spectral
// projected-gradient (SPG, Barzilai–Borwein step + nonmonotone Armijo line
// search) inner solver on the box constraints. The HSLB models are smooth
// and convex over the positive orthant, which is exactly the regime this
// combination handles well.
package nlp

import (
	"errors"
	"fmt"
	"math"

	"hslb/internal/expr"
	"hslb/internal/model"
)

// Options is empty: the solver runs one configuration, the constants
// below. The type stays so existing callers keep compiling.
type Options struct{}

// The solver's tolerances and iteration budgets.
const (
	feasTol   = 1e-6 // constraint violation tolerance
	optTol    = 1e-6 // projected-gradient tolerance
	maxOuter  = 50   // augmented-Lagrangian iterations
	maxInner  = 400  // SPG iterations per outer step
	initialMu = 10   // initial penalty
)

// Status is the outcome of a solve.
type Status int

// Solve statuses.
const (
	Optimal    Status = iota // KKT conditions met to tolerance
	Infeasible               // violation did not converge; likely infeasible
	IterLimit                // ran out of iterations while still improving
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is the outcome of Solve.
type Result struct {
	Status  Status
	X       []float64
	Obj     float64 // objective in the model's own sense
	FeasErr float64 // final maximum constraint violation
}

// ErrBadStart reports a starting point of the wrong dimension.
var ErrBadStart = errors.New("nlp: starting point has wrong dimension")

// canonical constraint: g(x) <= 0 (ineq) or h(x) == 0 (eq).
type canon struct {
	body *expr.Tape
	rhs  float64
	eq   bool
	flip bool // GE constraints are flipped: rhs - body <= 0
}

// value runs the body's forward sweep at x.
func (c *canon) value(x []float64) float64 {
	v := c.body.Eval(x) - c.rhs
	if c.flip {
		v = -v
	}
	return v
}

// scatter accumulates s·∇c, at the point of the body's last forward sweep,
// into g at the constraint's own variables.
func (c *canon) scatter(s float64, g []float64) {
	if c.flip {
		s = -s
	}
	grad := c.body.Reverse()
	for k, j := range c.body.Vars() {
		g[j] += s * grad[k]
	}
}

// problem is one Solve's model compiled to tapes, with what their last
// forward sweeps computed. Every tape is swept at the same point, so any
// reverse sweep run after sweep(x) is the gradient at x.
type problem struct {
	obj  *expr.Tape
	cons []canon
	// at is the point the tapes were last swept at; f and v are the
	// objective and the canonical constraint values there.
	at    []float64
	swept bool
	f     float64
	v     []float64
}

func newProblem(m *model.Model) *problem {
	p := &problem{
		obj:  expr.Compile(m.Objective),
		cons: make([]canon, 0, len(m.Cons)),
		at:   make([]float64, m.NumVars()),
		v:    make([]float64, len(m.Cons)),
	}
	for i := range m.Cons {
		c := canon{body: expr.Compile(m.Cons[i].Body), rhs: m.Cons[i].RHS}
		switch m.Cons[i].Sense {
		case model.LE:
		case model.GE:
			c.flip = true
		case model.EQ:
			c.eq = true
		}
		p.cons = append(p.cons, c)
	}
	return p
}

// sweep makes the tapes hold x, re-running the forward sweeps unless they
// already hold exactly x: the gradient SPG asks for right after the value
// at the same point runs only reverse sweeps.
func (p *problem) sweep(x []float64) {
	if p.swept && sameBits(p.at, x) {
		return
	}
	p.f = p.obj.Eval(x)
	for i := range p.cons {
		p.v[i] = p.cons[i].value(x)
	}
	copy(p.at, x)
	p.swept = true
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Solve minimizes (or maximizes, per m.Sense) the model's objective over its
// continuous box treating every variable as continuous. Integrality is the
// caller's concern: fix integer variables via bounds before calling.
// x0 may be nil, in which case a midpoint start is used.
func Solve(m *model.Model, x0 []float64, _ Options) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.NumVars()
	lower := make([]float64, n)
	upper := make([]float64, n)
	for i, v := range m.Vars {
		lower[i], upper[i] = v.Lower, v.Upper
	}

	x := make([]float64, n)
	if x0 != nil {
		if len(x0) != n {
			return nil, ErrBadStart
		}
		copy(x, x0)
	} else {
		for i := range x {
			x[i] = midpoint(lower[i], upper[i])
		}
	}
	project(x, lower, upper)

	negate := m.Sense == model.Maximize
	p := newProblem(m)
	cons := p.cons

	lam := make([]float64, len(cons)) // multipliers (eq and ineq share storage)
	mu := float64(initialMu)

	// Augmented Lagrangian value and gradient at x.
	alValue := func(x []float64) float64 {
		p.sweep(x)
		f := p.f
		if negate {
			f = -f
		}
		for i := range cons {
			v := p.v[i]
			if cons[i].eq {
				f += lam[i]*v + 0.5*mu*v*v
			} else {
				t := lam[i] + mu*v
				if t > 0 {
					f += (t*t - lam[i]*lam[i]) / (2 * mu)
				} else {
					f -= lam[i] * lam[i] / (2 * mu)
				}
			}
		}
		return f
	}
	alGrad := func(x, g []float64) {
		p.sweep(x)
		for i := range g {
			g[i] = 0
		}
		grad := p.obj.Reverse()
		for k, j := range p.obj.Vars() {
			g[j] = grad[k]
		}
		if negate {
			for i := range g {
				g[i] = -g[i]
			}
		}
		for i := range cons {
			v := p.v[i]
			if cons[i].eq {
				cons[i].scatter(lam[i]+mu*v, g)
			} else if t := lam[i] + mu*v; t > 0 {
				cons[i].scatter(t, g)
			}
		}
	}

	feasErr := func(x []float64) float64 {
		p.sweep(x)
		worst := 0.0
		for i := range cons {
			v := p.v[i]
			if cons[i].eq {
				worst = math.Max(worst, math.Abs(v))
			} else {
				worst = math.Max(worst, v)
			}
		}
		return worst
	}

	prevViol := math.Inf(1)
	for outer := 0; outer < maxOuter; outer++ {
		spg(alValue, alGrad, x, lower, upper, maxInner, optTol)
		viol := feasErr(x)
		if viol <= feasTol {
			// Check stationarity of the AL (≈ Lagrangian at convergence).
			g := make([]float64, n)
			alGrad(x, g)
			if projGradNorm(x, g, lower, upper) <= optTol*10 {
				return makeResult(m, x, Optimal, viol), nil
			}
		}
		// Multiplier update (PHR).
		p.sweep(x)
		for i := range cons {
			v := p.v[i]
			if cons[i].eq {
				lam[i] += mu * v
			} else {
				lam[i] = math.Max(0, lam[i]+mu*v)
			}
		}
		// Penalty update: grow when violation stagnates.
		if viol > 0.25*prevViol {
			mu *= 10
		}
		prevViol = viol
		if mu > 1e12 {
			return makeResult(m, x, classify(viol), viol), nil
		}
	}
	viol := feasErr(x)
	return makeResult(m, x, classify(viol), viol), nil
}

// classify maps a final violation to a status: clean convergence is
// Optimal, a clearly unreachable constraint set is Infeasible, and the
// ambiguous band in between is reported as IterLimit so callers do not
// treat a solver stall as a proof of infeasibility.
func classify(viol float64) Status {
	switch {
	case viol <= feasTol:
		return Optimal
	case viol > 1e-2:
		return Infeasible
	default:
		return IterLimit
	}
}

func makeResult(m *model.Model, x []float64, st Status, viol float64) *Result {
	return &Result{
		Status:  st,
		X:       append([]float64(nil), x...),
		Obj:     m.Objective.Eval(x),
		FeasErr: viol,
	}
}

func midpoint(l, u float64) float64 {
	switch {
	case !math.IsInf(l, -1) && !math.IsInf(u, 1):
		if u-l > 1e6 {
			// Enormous boxes (e.g. an epigraph variable bounded by 1e9)
			// make midpoint starts numerically hostile; start near the
			// lower bound instead.
			return l + 1
		}
		return (l + u) / 2
	case !math.IsInf(l, -1):
		return l + 1
	case !math.IsInf(u, 1):
		return u - 1
	default:
		return 0
	}
}

func project(x, lower, upper []float64) {
	for i := range x {
		if x[i] < lower[i] {
			x[i] = lower[i]
		}
		if x[i] > upper[i] {
			x[i] = upper[i]
		}
	}
}

// projGradNorm returns ‖P(x − g) − x‖∞, the projected-gradient optimality
// measure for box constraints.
func projGradNorm(x, g, lower, upper []float64) float64 {
	worst := 0.0
	for i := range x {
		t := x[i] - g[i]
		if t < lower[i] {
			t = lower[i]
		}
		if t > upper[i] {
			t = upper[i]
		}
		if d := math.Abs(t - x[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// spg minimizes fn over the box starting from x (in place) using the
// spectral projected gradient method with a nonmonotone Armijo line search
// (Birgin–Martínez–Raydan).
func spg(fn func([]float64) float64, grad func([]float64, []float64), x, lower, upper []float64, maxIter int, tol float64) {
	n := len(x)
	g := make([]float64, n)
	xNew := make([]float64, n)
	gNew := make([]float64, n)
	d := make([]float64, n)

	f := fn(x)
	grad(x, g)
	alpha := 1.0
	const histLen = 10
	hist := make([]float64, 0, histLen)
	hist = append(hist, f)

	for iter := 0; iter < maxIter; iter++ {
		if projGradNorm(x, g, lower, upper) <= tol {
			return
		}
		// Projected direction with spectral step length.
		for i := range d {
			t := x[i] - alpha*g[i]
			if t < lower[i] {
				t = lower[i]
			}
			if t > upper[i] {
				t = upper[i]
			}
			d[i] = t - x[i]
		}
		gd := 0.0
		for i := range d {
			gd += g[i] * d[i]
		}
		if gd > -1e-15 {
			return // no descent available
		}
		fMax := hist[0]
		for _, h := range hist {
			if h > fMax {
				fMax = h
			}
		}
		// Backtracking nonmonotone Armijo.
		step := 1.0
		var fNew float64
		accepted := false
		for ls := 0; ls < 60; ls++ {
			for i := range xNew {
				xNew[i] = x[i] + step*d[i]
			}
			fNew = fn(xNew)
			if fNew <= fMax+1e-4*step*gd {
				accepted = true
				break
			}
			step *= 0.5
		}
		if !accepted {
			return // numerical floor reached
		}
		grad(xNew, gNew)
		// Barzilai–Borwein step for next iteration.
		sty, sts := 0.0, 0.0
		for i := range x {
			s := xNew[i] - x[i]
			y := gNew[i] - g[i]
			sty += s * y
			sts += s * s
		}
		if sty > 1e-16 {
			alpha = sts / sty
			alpha = math.Min(1e8, math.Max(1e-8, alpha))
		} else {
			alpha = math.Min(1e8, alpha*2)
		}
		copy(x, xNew)
		copy(g, gNew)
		f = fNew
		if len(hist) == histLen {
			copy(hist, hist[1:])
			hist = hist[:histLen-1]
		}
		hist = append(hist, f)
	}
}
