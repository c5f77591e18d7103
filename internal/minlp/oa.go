package minlp

import (
	"container/heap"
	"context"
	"math"

	"hslb/internal/lp"
	"hslb/internal/nlp"
)

// maxCutRoundsPerNode bounds the resolve loop at one node. Each round adds a
// cut that strictly separates the current LP point, so this is a safety net
// against numerical stalls, not an algorithmic requirement.
const maxCutRoundsPerNode = 200

// solveOA is the LP/NLP-based branch-and-bound of Quesada and Grossmann as
// described in paper §III-E: a single tree of LP relaxations built from
// outer-approximation cuts, with fixed-integer subproblems solved only when
// an integer-feasible LP point violates a nonlinear constraint.
func solveOA(ctx context.Context, w *work, opt Options) (*Result, error) {
	m := w.m
	n := m.NumVars()
	intVars := m.IntegerVars()

	var cuts []lp.Constraint
	nlpSolves, cutsAdded, nodes := 0, 0, 0
	var lastX []float64 // most recent relaxation point, for the rescue dive
	var lpStats lp.WarmStats

	addCutsAt := func(x []float64, onlyViolated bool) int {
		added := 0
		for i := range w.nlCons {
			if onlyViolated && w.nlCons[i].Body.Eval(x) <= feasTol {
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

	// Root continuous NLP relaxation: initial linearization point (the
	// paper adds linearization constraints "derived from only a single
	// point ... the solution of the continuous NLP relaxation").
	relax := m.Relax()
	rres, err := nlp.Solve(relax, nil, nlp.Options{})
	if err != nil {
		return nil, err
	}
	nlpSolves++
	if rres.Status == nlp.Optimal {
		addCutsAt(rres.X, false)
		lastX = rres.X
	}
	// A non-optimal root NLP is not trusted as an infeasibility proof (the
	// augmented-Lagrangian solver can stall); the LP tree below produces
	// its own evidence via accumulated cuts.

	open := &nodeHeap{rootNode(m)}
	heap.Init(open)
	incumbent := math.Inf(1)
	var bestX []float64

	// Each node gets one warm-start session: the first round solves cold,
	// later rounds differ only by the cuts appended since, which the
	// WarmSolver absorbs with a few dual simplex pivots instead of a full
	// two-phase restart. Sessions are per-node because node bounds differ
	// (the warm path supports appended rows, not bound changes), and the
	// session tracks the global cut pool by high-water mark so cuts added
	// mid-round (e.g. from a fixed-integer NLP) are picked up too.
	type nodeLP struct {
		ws   *lp.WarmSolver
		seen int // cuts already appended to the session's problem
	}
	newNodeLP := func(nd *node) *nodeLP {
		p := &lp.Problem{
			NumVars: n,
			Obj:     w.objCoef,
			Cons:    append(append([]lp.Constraint(nil), w.linCons...), cuts...),
			Lower:   nd.lower,
			Upper:   nd.upper,
		}
		return &nodeLP{ws: lp.NewWarmSolver(p), seen: len(cuts)}
	}
	solveNodeLP := func(s *nodeLP) (*lp.Solution, error) {
		for ; s.seen < len(cuts); s.seen++ {
			c := cuts[s.seen]
			s.ws.AddConstraint(c.Coef, c.Sense, c.RHS)
		}
		before := s.ws.Stats()
		sol, err := s.ws.Solve()
		lpStats.Add(s.ws.Stats().Sub(before))
		return sol, err
	}

	deadline := func() (*Result, error) {
		if bestX == nil {
			if x, obj, ok := rescueDive(w, lastX); ok {
				incumbent = obj
				bestX = snapInts(x, intVars)
			}
		}
		r := resultOf(bestX, incumbent, Deadline, nodes, nlpSolves, cutsAdded)
		r.LPWarm = lpStats
		return r, nil
	}

	for open.Len() > 0 {
		if ctx.Err() != nil {
			return deadline()
		}
		if nodes >= opt.MaxNodes {
			r := resultOf(bestX, incumbent, NodeLimit, nodes, nlpSolves, cutsAdded)
			r.LPWarm = lpStats
			return r, nil
		}
		nd := heap.Pop(open).(*node)
		if nd.bound >= incumbent-pruneGap(opt, incumbent) {
			continue
		}
		nodes++
		nlpSession := newNodeLP(nd)

	nodeLoop:
		for round := 0; round < maxCutRoundsPerNode; round++ {
			// Cut rounds solve LPs and NLPs; a node can spin here for a
			// while, so the deadline is honored between rounds too.
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
				// The relaxation lacks curvature information in some
				// direction. Recover it from the node NLP relaxation.
				nm := m.Clone()
				for i := range nm.Vars {
					nm.Vars[i].Lower, nm.Vars[i].Upper = nd.lower[i], nd.upper[i]
				}
				nres, nerr := nlp.Solve(nm, nil, nlp.Options{})
				if nerr != nil {
					return nil, nerr
				}
				nlpSolves++
				if nres.Status != nlp.Optimal || addCutsAt(nres.X, false) == 0 {
					break nodeLoop // cannot bound this node; drop it
				}
				continue
			case lp.IterationLimit:
				break nodeLoop
			}
			if sol.Obj >= incumbent-pruneGap(opt, incumbent) {
				break nodeLoop
			}
			clampToNode(sol.X, nd)
			lastX = sol.X

			frac := pickFractional(sol.X, intVars, intTol)
			if frac >= 0 {
				// Fractional: branch, children inherit the (global) cuts.
				if opt.BranchSOS {
					if left, right, ok := branchSOS(m, nd, sol.X, intTol); ok {
						left.bound, right.bound = sol.Obj, sol.Obj
						heap.Push(open, left)
						heap.Push(open, right)
						break nodeLoop
					}
				}
				left, right := branchVar(nd, frac, sol.X[frac])
				left.bound, right.bound = sol.Obj, sol.Obj
				heap.Push(open, left)
				heap.Push(open, right)
				break nodeLoop
			}

			// Integer feasible. Check the true nonlinear constraints.
			if w.nlViolation(sol.X) <= feasTol {
				incumbent = sol.Obj
				bestX = snapInts(sol.X, intVars)
				break nodeLoop
			}

			// Solve the subproblem with integers fixed to this assignment
			// (continuous variables keep their global bounds): one exact
			// LP when the model's structure allows it, the NLP otherwise.
			fs, ferr := w.solveFixed(snapInts(sol.X, intVars), sol.X, 0)
			if ferr != nil {
				return nil, ferr
			}
			nlpSolves++
			if fs != nil {
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
	r := resultOf(bestX, incumbent, Optimal, nodes, nlpSolves, cutsAdded)
	r.LPWarm = lpStats
	return r, nil
}

func dotObj(c, x []float64) float64 {
	s := 0.0
	for i := range c {
		s += c[i] * x[i]
	}
	return s
}

func resultOf(x []float64, obj float64, st Status, nodes, nlpSolves, cuts int) *Result {
	if x == nil {
		if st == Optimal {
			st = Infeasible
		}
		return &Result{Status: st, Nodes: nodes, NLPSolves: nlpSolves, Cuts: cuts}
	}
	return &Result{Status: st, X: x, Obj: obj, Nodes: nodes, NLPSolves: nlpSolves, Cuts: cuts}
}

func snapInts(x []float64, intVars []int) []float64 {
	out := append([]float64(nil), x...)
	for _, j := range intVars {
		out[j] = math.Round(out[j])
	}
	return out
}
