package minlp

import (
	"container/heap"
	"context"
	"errors"
	"math"

	"hslb/internal/lp"
)

// maxCutRoundsPerNode bounds the resolve loop at one node, and the Kelley
// rounds of one fixed-integer subproblem. Each round adds a cut that
// strictly separates the current LP point, so this is a safety net against
// numerical stalls, not an algorithmic requirement.
const maxCutRoundsPerNode = 200

// poolPoints is how many points, spaced geometrically across the variable
// box, each nonlinear row's tangent cuts are taken at for the root pool.
const poolPoints = 9

// tangentPool returns, for every nonlinear row, its tangent cuts at
// poolPoints points spaced geometrically across the box: the k-th point
// puts each variable at lo − 1 + (hi − lo + 1)^(k/(poolPoints−1)), which
// runs from lo to hi and is dense where a component time a/n bends most.
// A variable with an infinite bound appears only linearly (prepare rejects
// the rest), so its value moves no tangent; it sits at the point of its
// range nearest zero. Points where a row does not linearize are skipped.
func (w *work) tangentPool() [][]lp.Constraint {
	pool := make([][]lp.Constraint, len(w.nlCons))
	x := make([]float64, w.m.NumVars())
	for k := 0; k < poolPoints; k++ {
		w.poolPoint(k, x)
		for i := range w.nlCons {
			if c, ok := w.cutAt(i, x); ok {
				pool[i] = append(pool[i], c)
			}
		}
	}
	return pool
}

// poolPoint writes the k-th of the poolPoints tangent points into x.
func (w *work) poolPoint(k int, x []float64) {
	t := float64(k) / (poolPoints - 1)
	for j, v := range w.m.Vars {
		x[j] = math.Max(v.Lower, math.Min(v.Upper, 0))
		if !math.IsInf(v.Lower, 0) && !math.IsInf(v.Upper, 0) {
			x[j] = v.Lower - 1 + math.Pow(v.Upper-v.Lower+1, t)
		}
	}
}

// solveOA is the LP/NLP-based branch-and-bound of Quesada and Grossmann as
// described in paper §III-E: a single tree of LP relaxations built from
// outer-approximation cuts, with fixed-integer subproblems solved only when
// an integer-feasible LP point violates a nonlinear constraint. The root
// linearization is the tangent pool (tangentPool), not the paper's
// continuous NLP relaxation.
func solveOA(ctx context.Context, w *work, opt Options) (*Result, error) {
	m := w.m
	n := m.NumVars()
	intVars := m.IntegerVars()

	var cuts []lp.Constraint
	cutsAdded, nodes := 0, 0
	var lastX []float64 // most recent relaxation point, for the rescue dive
	var lpStats lp.WarmStats

	addCutsAt := func(x []float64, onlyViolated bool) int {
		added := 0
		for i := range w.nlCons {
			if onlyViolated && w.tapes[i].Eval(x) <= feasTol {
				continue
			}
			if c, ok := w.cutAt(i, x); ok {
				cuts = append(cuts, c)
				added++
			}
		}
		cutsAdded += added
		return added
	}

	// Root linearization: every nonlinear row's tangent at the middle pool
	// point starts in the LP, which keeps it bounded wherever the continuous
	// relaxation is; the other pool cuts wait until an LP point violates
	// them (separatePool), so a model with many rows does not get them all
	// as dense LP rows up front. A cut already in the LP holds at every LP
	// point, so the pool never offers it twice.
	pool := w.tangentPool()
	for _, cs := range pool {
		if len(cs) > 0 {
			cuts = append(cuts, cs[len(cs)/2])
		}
	}
	cutsAdded = len(cuts)
	rootCuts := len(cuts) // cuts[:rootCuts] is the root linearization
	// separatePool adds to the LP, for each nonlinear row, the pool cut
	// that x violates most, if it violates it by more than feasTol.
	separatePool := func(x []float64) int {
		added := 0
		for _, cs := range pool {
			best, worst := -1, feasTol
			for k, c := range cs {
				if v := dotObj(c.Coef, x) - c.RHS; v > worst {
					best, worst = k, v
				}
			}
			if best >= 0 {
				cuts = append(cuts, cs[best])
				added++
			}
		}
		cutsAdded += added
		return added
	}

	open := &nodeHeap{rootNode(m)}
	heap.Init(open)
	incumbent := math.Inf(1)
	var bestX []float64

	// A node LP holds the linear rows, the root linearization and only the
	// other cuts that bind near its point. The root LP holds every cut. A
	// child's LP starts from the root linearization and the cuts tight at
	// the final LP point of the parent that branched it: the tight cuts
	// carry the parent's LP bound, and the rest were slack there. The root
	// linearization stays because it ties every nonlinear row's variables
	// to the objective: without it a child LP parks the variables of rows
	// it holds no cut of at arbitrary bounds, and the cuts it then takes in
	// leave them at fractional vertices, which on near-tied models grows
	// the tree many times over. After each solve, every global cut the
	// point violates by more than the simplex's tolerance joins the session
	// in one batch and the LP is re-solved warm (the WarmSolver absorbs
	// appended rows with a few dual simplex pivots, not a two-phase
	// restart), until the point violates none; cuts added mid-round, at a
	// fixed-integer subproblem's point or from the pool, reach the session
	// the same way. So every point the search acts on satisfies every
	// global cut, a node's bound is that of the LP over all cuts, and only
	// the vertex picked among alternative optima can differ from it. A
	// session lives for one node, because node bounds differ and the warm
	// path takes appended rows, not bound changes.
	type nodeLP struct {
		ws   *lp.WarmSolver
		held []bool // held[k]: cuts[k] is a row of this LP
	}
	newNodeLP := func(nd *node) *nodeLP {
		s := &nodeLP{held: make([]bool, len(cuts))}
		cons := append([]lp.Constraint(nil), w.linCons...)
		for k, c := range cuts {
			if nd.parentX == nil || k < rootCuts || tightAt(c, nd.parentX) {
				cons = append(cons, c)
				s.held[k] = true
			}
		}
		s.ws = lp.NewWarmSolver(&lp.Problem{
			NumVars: n,
			Obj:     w.objCoef,
			Cons:    cons,
			Lower:   nd.lower,
			Upper:   nd.upper,
		})
		return s
	}
	solveNodeLP := func(s *nodeLP) (*lp.Solution, error) {
		before := s.ws.Stats()
		defer func() { lpStats.Add(s.ws.Stats().Sub(before)) }()
		for {
			sol, err := s.ws.SolveContext(ctx)
			if err != nil {
				return nil, err
			}
			for len(s.held) < len(cuts) {
				s.held = append(s.held, false)
			}
			var batch []lp.Constraint
			for k, c := range cuts {
				if s.held[k] {
					continue
				}
				// An LP unbounded over part of the cuts proves nothing:
				// it takes all of them.
				if sol.Status == lp.Unbounded ||
					sol.Status == lp.Optimal && dotObj(c.Coef, sol.X)-c.RHS > lp.FeasTol {
					batch = append(batch, c)
					s.held[k] = true
				}
			}
			if len(batch) == 0 {
				return sol, nil
			}
			s.ws.AddConstraints(batch)
		}
	}

	// result reports the search as it stands; an Optimal search that found
	// no incumbent proved the model infeasible.
	result := func(st Status) (*Result, error) {
		r := &Result{Status: st, Nodes: nodes, Cuts: cutsAdded, LPWarm: lpStats}
		if bestX != nil {
			r.X, r.Obj = bestX, incumbent
		} else if st == Optimal {
			r.Status = Infeasible
		}
		return r, nil
	}
	deadline := func() (*Result, error) {
		if bestX == nil {
			if lastX == nil {
				// No LP finished in time: give the rescue dive the root
				// LP's point to round, solved to the end.
				if sol, err := newNodeLP(rootNode(m)).ws.Solve(); err == nil && sol.Status == lp.Optimal {
					lastX = sol.X
				}
			}
			if x, obj, ok := rescueDive(w, lastX); ok {
				incumbent = obj
				bestX = snapInts(x, intVars)
			}
		}
		return result(Deadline)
	}

	for open.Len() > 0 {
		if ctx.Err() != nil {
			return deadline()
		}
		if nodes >= opt.MaxNodes {
			return result(NodeLimit)
		}
		nd := heap.Pop(open).(*node)
		if nd.bound >= incumbent-pruneGap(opt, incumbent) {
			continue
		}
		nodes++
		nlpSession := newNodeLP(nd)

	nodeLoop:
		for round := 0; round < maxCutRoundsPerNode; round++ {
			// A node can spin through many cut rounds, so the deadline is
			// honored between rounds too.
			if ctx.Err() != nil {
				return deadline()
			}
			sol, err := solveNodeLP(nlpSession)
			if err != nil {
				return nil, err
			}
			switch sol.Status {
			case lp.Infeasible:
				break nodeLoop
			case lp.Unbounded:
				// Every node LP holds a tangent of every nonlinear row, so
				// the continuous relaxation itself is unbounded.
				return nil, errors.New("minlp: the continuous relaxation is unbounded")
			case lp.Canceled:
				return deadline()
			case lp.IterationLimit:
				break nodeLoop
			}
			if sol.Obj >= incumbent-pruneGap(opt, incumbent) {
				break nodeLoop
			}
			clampToNode(sol.X, nd)
			lastX = sol.X
			if w.watch != nil {
				w.watch(sol.X, cuts)
			}
			if separatePool(sol.X) > 0 {
				continue
			}

			frac := pickFractional(sol.X, intVars, intTol)
			if frac >= 0 {
				// Fractional: branch. The children start from the cuts
				// that bind at this point.
				var left, right *node
				ok := false
				if opt.BranchSOS {
					left, right, ok = branchSOS(m, nd, sol.X, intTol)
				}
				if !ok {
					left, right = branchVar(nd, frac, sol.X[frac])
				}
				for _, child := range []*node{left, right} {
					child.bound, child.parentX = sol.Obj, sol.X
					heap.Push(open, child)
				}
				break nodeLoop
			}

			// Integer feasible. Check the true nonlinear constraints.
			if w.nlViolation(sol.X) <= feasTol {
				incumbent = sol.Obj
				bestX = snapInts(sol.X, intVars)
				break nodeLoop
			}

			// Solve the subproblem with integers fixed to this assignment
			// (continuous variables keep their global bounds).
			if fs := w.fixedLP(snapInts(sol.X, intVars)); fs != nil {
				if fs.obj < incumbent {
					incumbent = fs.obj
					bestX = snapInts(fs.x, intVars)
				}
				addCutsAt(fs.x, false)
			}
			// Separate the current LP point so the resolve makes progress.
			if addCutsAt(sol.X, true) == 0 {
				break nodeLoop // numerically stuck: no separating cut found
			}
		}
	}
	return result(Optimal)
}

// tightAt reports whether cut c holds with equality at x, to within
// 1e-7·(1+|rhs|).
func tightAt(c lp.Constraint, x []float64) bool {
	return math.Abs(dotObj(c.Coef, x)-c.RHS) <= 1e-7*(1+math.Abs(c.RHS))
}

func dotObj(c, x []float64) float64 {
	s := 0.0
	for i := range c {
		s += c[i] * x[i]
	}
	return s
}

func snapInts(x []float64, intVars []int) []float64 {
	out := append([]float64(nil), x...)
	for _, j := range intVars {
		out[j] = math.Round(out[j])
	}
	return out
}
