package minlp

import (
	"container/heap"
	"context"
	"math"

	"hslb/internal/model"
	"hslb/internal/nlp"
)

// solveNLPBB is classic nonlinear branch-and-bound: every node solves the
// continuous NLP relaxation restricted to the node's bounds; fractional
// integer variables (or SOS-1 sets) are branched on; NLP objective values
// give valid lower bounds because the problems are convex.
func solveNLPBB(ctx context.Context, w *work, opt Options) (*Result, error) {
	m := w.m
	intVars := m.IntegerVars()
	open := &nodeHeap{rootNode(m)}
	heap.Init(open)
	var heapSeq int64 // creation stamps; the root keeps 0

	incumbent := math.Inf(1)
	var bestX []float64
	nodes, nlpSolves := 0, 0
	var lastX []float64 // most recent relaxation point, for the rescue dive

	for open.Len() > 0 {
		if ctx.Err() != nil {
			if bestX == nil {
				if x, obj, ok := rescueDive(w, lastX); ok {
					incumbent = obj
					bestX = snapInts(x, intVars)
				}
			}
			return resultOf(bestX, incumbent, Deadline, nodes, nlpSolves, 0), nil
		}
		if nodes >= opt.MaxNodes {
			return resultOf(bestX, incumbent, NodeLimit, nodes, nlpSolves, 0), nil
		}
		nd := heap.Pop(open).(*node)
		if nd.bound >= incumbent-pruneGap(opt, incumbent) {
			continue
		}
		nodes++

		res, err := evalNode(w, nd)
		if err != nil {
			return nil, err
		}
		if res == nil {
			continue // empty box
		}
		nlpSolves++
		if res.Status == nlp.Infeasible {
			continue
		}
		obj := res.Obj // work model minimizes a linear objective
		if obj >= incumbent-pruneGap(opt, incumbent) {
			continue
		}
		clampToNode(res.X, nd)
		lastX = res.X

		frac := pickFractional(res.X, intVars, intTol)
		if frac < 0 && res.FeasErr <= feasTol {
			incumbent = obj
			bestX = snapInts(res.X, intVars)
			continue
		}
		if frac < 0 {
			// Integral but not NLP-converged: cannot branch further; the
			// point is unusable, drop the node.
			continue
		}
		if opt.BranchSOS {
			if left, right, ok := branchSOS(m, nd, res.X, intTol); ok {
				pushChildren(open, &heapSeq, left, right, obj, res.X)
				continue
			}
		}
		left, right := branchVar(nd, frac, res.X[frac])
		pushChildren(open, &heapSeq, left, right, obj, res.X)
	}
	return resultOf(bestX, incumbent, Optimal, nodes, nlpSolves, 0), nil
}

// evalNode restricts the model to the node's box and solves the continuous
// relaxation. It returns a nil result, unsolved, when the box is empty.
func evalNode(w *work, nd *node) (*nlp.Result, error) {
	nm := w.m.Clone()
	for i := range nm.Vars {
		if nd.lower[i] > nd.upper[i] {
			return nil, nil
		}
		nm.Vars[i].Lower = nd.lower[i]
		nm.Vars[i].Upper = nd.upper[i]
	}
	if reduceSelectionSets(nm) {
		return nil, nil
	}
	res, err := nlp.Solve(nm, nd.start, nlp.Options{})
	if err != nil {
		return nil, err
	}
	if res.X != nil {
		liftSelectors(w.m, nd, res.X)
	}
	return res, nil
}

// reduceSelectionSets rewrites each selection set for the NLP relaxation:
// the binary encoding (selectors z with Σz = 1 and target = Σw·z) is
// exactly the interval hull of the still-active weights when the z are
// relaxed to [0,1], so the two equality constraints are dropped, the
// selectors pinned to 0, and the target's box intersected with that hull.
// This matters beyond speed: the first-order augmented-Lagrangian NLP
// reliably stalls on the Σz = 1 manifold once branching pins selector
// blocks to zero — the box midpoint it cold-starts from is nowhere near
// feasible — and a stalled solve reads as "infeasible", silently pruning
// feasible subtrees (the 1° Table I model was unsolvable by NLPBB because
// of it). Reports true when some set has no active selector left or the
// hull misses the target's box, i.e. the node is empty. Sets without
// recorded encoding constraints (LinkCon == Pick1Con) are left alone.
func reduceSelectionSets(nm *model.Model) bool {
	var drop map[int]bool
	for _, s := range nm.SOS {
		if s.LinkCon == s.Pick1Con {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for k, sel := range s.Selectors {
			if nm.Vars[sel].Upper > 0 {
				if s.Weights[k] < lo {
					lo = s.Weights[k]
				}
				if s.Weights[k] > hi {
					hi = s.Weights[k]
				}
			}
			nm.Vars[sel].Lower, nm.Vars[sel].Upper = 0, 0
		}
		tv := &nm.Vars[s.Target]
		if tv.Lower > lo {
			lo = tv.Lower
		}
		if tv.Upper < hi {
			hi = tv.Upper
		}
		if lo > hi {
			return true
		}
		tv.Lower, tv.Upper = lo, hi
		if drop == nil {
			drop = map[int]bool{}
		}
		drop[s.Pick1Con] = true
		drop[s.LinkCon] = true
	}
	if drop != nil {
		kept := nm.Cons[:0]
		for i := range nm.Cons {
			if !drop[i] {
				kept = append(kept, nm.Cons[i])
			}
		}
		nm.Cons = kept
		// The sets' row indices no longer hold; the NLP ignores SOS anyway.
		nm.SOS = nil
	}
	return false
}

// liftSelectors writes a consistent convex combination back into the
// selector slots of a reduced-relaxation solution, so the rest of the
// search (pickFractional, branchSOS, feasibility checks against the full
// model) sees the set state the dropped encoding would have produced: the
// two active weights bracketing the target are interpolated, collapsing
// to a single z = 1 when the target sits on an allowed weight.
func liftSelectors(m *model.Model, nd *node, x []float64) {
	for _, s := range m.SOS {
		if s.LinkCon == s.Pick1Con {
			continue
		}
		t := x[s.Target]
		a, b := -1, -1 // nearest active weights ≤ t / ≥ t
		for k, sel := range s.Selectors {
			x[sel] = 0
			if nd.upper[sel] <= 0 {
				continue
			}
			if s.Weights[k] <= t+1e-9 {
				a = k
			}
			if b < 0 && s.Weights[k] >= t-1e-9 {
				b = k
			}
		}
		switch {
		case a < 0 && b < 0:
			// No active selector: an empty node; nothing sensible to write.
		case a < 0:
			x[s.Selectors[b]] = 1
		case b < 0 || a == b:
			x[s.Selectors[a]] = 1
		default:
			lam := (s.Weights[b] - t) / (s.Weights[b] - s.Weights[a])
			x[s.Selectors[a]] = lam
			x[s.Selectors[b]] = 1 - lam
		}
	}
}

// pushChildren stamps both children with creation order and puts them on
// the heap with their parent's relaxation objective as bound and the
// parent's solution as warm start.
func pushChildren(open *nodeHeap, heapSeq *int64, left, right *node, bound float64, start []float64) {
	left.bound, right.bound = bound, bound
	left.start, right.start = start, start
	*heapSeq++
	left.seq = *heapSeq
	*heapSeq++
	right.seq = *heapSeq
	heap.Push(open, left)
	heap.Push(open, right)
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
