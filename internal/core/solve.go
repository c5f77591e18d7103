package core

import (
	"context"
	"fmt"
	"math"

	"hslb/internal/cesm"
	"hslb/internal/minlp"
)

// SolverOptions wraps the MINLP options with HSLB defaults: the LP/NLP
// branch-and-bound with SOS branching, the setup §III-E reports as two
// orders of magnitude faster than branching on individual binaries.
func SolverOptions() minlp.Options {
	return minlp.Options{
		BranchSOS: true,
		// A 0.01% relative gap: total times are hundreds to thousands of
		// seconds, so sub-millisecond allocation differences are noise and
		// resolving them would blow up the tree on large machines.
		RelGap: 1e-4,
	}
}

// SolveAllocation builds and solves the Table I model for the spec (HSLB
// step 3) and returns the optimal allocation with predicted times.
func SolveAllocation(s Spec, opt minlp.Options) (*Decision, error) {
	return SolveAllocationContext(context.Background(), s, opt)
}

// SolveAllocationContext is SolveAllocation under a context deadline. A
// solve that times out but carries a feasible incumbent is returned as a
// Decision with Status minlp.Deadline rather than an error; a timeout with
// no incumbent at all is an error. Nonconvex specs go to ExhaustiveSearch.
func SolveAllocationContext(ctx context.Context, s Spec, opt minlp.Options) (*Decision, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if exactRoute(s) {
		return ExhaustiveSearch(s)
	}
	m, vars, err := BuildModel(s)
	if err != nil {
		return nil, err
	}
	res, err := minlp.SolveContext(ctx, m, opt)
	if err != nil {
		return nil, err
	}
	acceptable := res.Status == minlp.Optimal ||
		(res.Status == minlp.Deadline && res.X != nil)
	if !acceptable {
		return nil, fmt.Errorf("core: MINLP solve ended with status %v after %d nodes", res.Status, res.Nodes)
	}
	var alloc cesm.Allocation
	for _, c := range cesm.OptimizedComponents {
		alloc.Set(c, int(math.Round(res.X[vars.N[c]])))
	}
	total, comp := PredictTotal(s, alloc)
	return &Decision{Alloc: alloc, PredictedComp: comp, PredictedTime: total,
		Status: res.Status, Nodes: res.Nodes, NLPSolves: res.NLPSolves, Cuts: res.Cuts}, nil
}

// exactRoute reports whether the spec's Table I model is nonconvex, so an
// OA cut can cut off its optimum: the max-min rows (eq. 2) and layout 1's
// sync rows (Table I lines 18-19), each a difference of convex curves.
func exactRoute(s Spec) bool {
	return s.Objective == MaxMin || (s.Layout == cesm.Layout1 && s.SyncTol > 0)
}

// PredictTotal evaluates the spec's fitted models at an arbitrary
// allocation and composes the layout total — the "HSLB predicted time" the
// paper prints for comparison against actual runs.
func PredictTotal(s Spec, alloc cesm.Allocation) (float64, map[cesm.Component]float64) {
	comp := map[cesm.Component]float64{}
	for _, c := range cesm.OptimizedComponents {
		comp[c] = s.Perf[c].Eval(float64(alloc.Get(c)))
	}
	return cesm.ComposeTotal(s.Layout, comp), comp
}

// TuneToSweetSpots adjusts a predicted allocation toward known sweet spots,
// as the paper did for the final 1/8° 32768-node run ("chosen based on the
// HSLB predicted nodes but adjusting node counts toward known component
// sweet spots"). The atmosphere and ocean are snapped to their
// decomposition granularity or set; ice+land are then repaired to fit the
// layout-1 sharing constraint.
func TuneToSweetSpots(s Spec, alloc cesm.Allocation) cesm.Allocation {
	out := alloc
	if s.Resolution == cesm.Res8thDeg {
		out.Atm = cesm.SnapToMultiple(out.Atm, cesm.AtmNodeMultiple)
		out.Ocn = cesm.SnapToMultiple(out.Ocn, cesm.OceanNodeMultiple)
	} else {
		out.Atm = cesm.SnapToSweetSpot(out.Atm, cesm.AtmSet(s.Resolution, s.TotalNodes))
		out.Ocn = cesm.SnapToSweetSpot(out.Ocn, cesm.OceanSet(s.Resolution))
	}
	if out.Atm+out.Ocn > s.TotalNodes {
		out.Atm = s.TotalNodes - out.Ocn
	}
	if s.Layout == cesm.Layout1 && out.Ice+out.Lnd > out.Atm {
		// Keep the ice/land ratio, shrink into the atmosphere share.
		ratio := float64(out.Ice) / float64(out.Ice+out.Lnd)
		out.Ice = int(ratio * float64(out.Atm))
		if out.Ice < 1 {
			out.Ice = 1
		}
		out.Lnd = out.Atm - out.Ice
		if out.Lnd < 1 {
			out.Lnd = 1
			out.Ice = out.Atm - 1
		}
	}
	return out
}
