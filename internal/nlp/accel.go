package nlp

import (
	"math"
	"sync"

	"hslb/internal/linalg"
)

// AccelStats counts what the accelerator did across the Solve calls that
// shared it.
type AccelStats struct {
	Factorizations int // full Cholesky factorizations built
	RankUpdates    int // factor reuses patched by rank-1 update/downdate
	Reuses         int // factor reuses needing no patching at all
	Steps          int // accelerator steps accepted by the line search
	Rejections     int // proposed steps rejected by the line search
}

// Accel is an optional cross-solve accelerator for the augmented-
// Lagrangian loop. Before each outer iteration it proposes a Gauss-Newton
// step: the AL Hessian is approximated by the normal matrix
// μ·JᵀJ + δI over the active constraints (exact for the linear-objective
// problems the MINLP layer produces, where all curvature lives in the
// constraints), its Cholesky factor is CACHED, and when consecutive solves
// — the warm-started child NLPs of a branch-and-bound dive — share all but
// one or two active constraints, the factor is patched by rank-1
// update/downdate instead of refactored. Retained rows are evaluated at
// the point they were factored at, so the patched factor is an
// approximation; every proposed step is therefore guarded by a descent
// check on the true AL value and simply rejected when the approximation is
// poor, after which the SPG inner solver proceeds exactly as without the
// accelerator.
//
// An Accel is safe for use from one goroutine at a time (calls are
// serialized by an internal mutex) but is intended to be owned by a single
// search worker: the cache contents depend on solve order, so sharing one
// across workers makes results depend on scheduling.
type Accel struct {
	mu     sync.Mutex
	n      int
	pen    float64 // penalty μ the factor was built at
	active []int   // sorted constraint indices in the factor
	rows   map[int][]float64
	chol   *linalg.Cholesky
	stats  AccelStats
}

// NewAccel returns an empty accelerator cache.
func NewAccel() *Accel { return &Accel{} }

// Stats returns a snapshot of the accelerator's counters.
func (a *Accel) Stats() AccelStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

const (
	accelMaxDim  = 64 // dense n×n normal matrix; past this SPG alone is cheaper
	accelLineMax = 25 // halvings before the proposed step is rejected
)

// accelState carries the pieces of one Solve invocation the step needs.
type accelState struct {
	x, lower, upper []float64
	p               *problem
	lam             []float64
	mu              float64
	alValue         func([]float64) float64
	alGrad          func(x, g []float64)
}

// step proposes and (if it descends) takes one guarded Gauss-Newton step,
// updating s.x in place.
func (a *Accel) step(s *accelState) {
	n := len(s.x)
	if n == 0 || n > accelMaxDim {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	// Active set at the current point: constraints whose AL term carries
	// curvature (equalities always; inequalities with a positive
	// multiplier estimate).
	s.p.sweep(s.x)
	var active []int
	for i := range s.p.cons {
		if s.p.cons[i].eq || s.lam[i]+s.mu*s.p.v[i] > 0 {
			active = append(active, i)
		}
	}

	sq := math.Sqrt(s.mu)
	row := func(i int) []float64 {
		r := make([]float64, n)
		s.p.sweep(s.x)
		s.p.cons[i].scatter(sq, r)
		return r
	}

	added, removed := diffSets(a.active, active)
	valid := a.chol != nil && a.n == n && a.pen == s.mu
	switch {
	case valid && len(added)+len(removed) == 0:
		a.stats.Reuses++
	case valid && len(added)+len(removed) <= 2 && a.patch(added, removed, row):
		a.stats.RankUpdates++
		a.active = append([]int(nil), active...)
	default:
		if !a.refactor(n, s.mu, active, row) {
			a.chol = nil
			return
		}
		a.stats.Factorizations++
		a.active = append([]int(nil), active...)
		a.n, a.pen = n, s.mu
	}

	g := make([]float64, n)
	s.alGrad(s.x, g)
	rhs := make(linalg.Vector, n)
	for i := range g {
		rhs[i] = -g[i]
	}
	p, err := a.chol.Solve(rhs)
	if err != nil {
		a.chol = nil
		return
	}
	f0 := s.alValue(s.x)
	cand := make([]float64, n)
	t := 1.0
	for ls := 0; ls < accelLineMax; ls++ {
		for i := range cand {
			c := s.x[i] + t*p[i]
			if c < s.lower[i] {
				c = s.lower[i]
			}
			if c > s.upper[i] {
				c = s.upper[i]
			}
			cand[i] = c
		}
		if fNew := s.alValue(cand); fNew < f0-1e-10*(1+math.Abs(f0)) {
			copy(s.x, cand)
			a.stats.Steps++
			return
		}
		t *= 0.5
	}
	a.stats.Rejections++
}

// patch applies the active-set delta to the cached factor by rank-1
// rotations: additions first (always succeed), then downdates, which can
// fail when the removal would cost positive definiteness — the caller
// refactors in that case (the factor may be left unusable here).
func (a *Accel) patch(added, removed []int, row func(int) []float64) bool {
	for _, i := range added {
		r := row(i)
		if a.chol.Update(r) != nil {
			return false
		}
		a.rows[i] = r
	}
	for _, i := range removed {
		r := a.rows[i]
		if r == nil || a.chol.Downdate(r) != nil {
			return false
		}
		delete(a.rows, i)
	}
	return true
}

// refactor rebuilds the normal matrix μ·JᵀJ + δI over the active set and
// factors it from scratch.
func (a *Accel) refactor(n int, pen float64, active []int, row func(int) []float64) bool {
	h := linalg.NewMatrix(n, n)
	// δ regularizes the directions J leaves uncovered; scaling it with μ
	// keeps its share of the curvature constant as the penalty grows.
	delta := 1e-3 * (1 + pen)
	for i := 0; i < n; i++ {
		h.Set(i, i, delta)
	}
	rows := make(map[int][]float64, len(active))
	for _, ci := range active {
		r := row(ci)
		rows[ci] = r
		for i := 0; i < n; i++ {
			if r[i] == 0 {
				continue
			}
			for j := 0; j <= i; j++ {
				h.Set(i, j, h.At(i, j)+r[i]*r[j])
			}
		}
	}
	c, err := linalg.FactorCholesky(h)
	if err != nil {
		return false
	}
	a.chol = c
	a.rows = rows
	return true
}

// diffSets returns the elements added to and removed from old (both inputs
// sorted ascending) to produce new.
func diffSets(old, new []int) (added, removed []int) {
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch {
		case old[i] == new[j]:
			i++
			j++
		case old[i] < new[j]:
			removed = append(removed, old[i])
			i++
		default:
			added = append(added, new[j])
			j++
		}
	}
	removed = append(removed, old[i:]...)
	added = append(added, new[j:]...)
	return added, removed
}
