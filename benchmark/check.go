package main

import (
	"fmt"
	"math"
	"sort"

	"hslb/internal/cesm"
	"hslb/internal/core"
)

const (
	// qualityTol is how far above the exact optimum an answer may sit: twice
	// the relative gap the solvers are run with (RelGap 1e-4).
	qualityTol = 2e-4
	// consistencyTol bounds the gap between the objective a solver reports
	// and the model's value at the allocation it returns.
	consistencyTol = 1e-4
)

// answer is what one operation returned.
type answer struct {
	// err is set when the operation produced no usable decision: transport
	// error, shed or refused, a status other than optimal, a degraded reply.
	err       string
	reported  float64 // the objective the solver reported
	alloc     cesm.Allocation
	nodes     int // branch-and-bound nodes, where the path reports them
	latencyMS float64
}

// fromVariables reads the allocation out of a /solve response.
func allocFromVariables(v map[string]float64) (cesm.Allocation, error) {
	var a cesm.Allocation
	for _, c := range cesm.OptimizedComponents {
		x, ok := v["n_"+c.String()]
		if !ok || x != math.Round(x) {
			return a, fmt.Errorf("n_%s missing or fractional (%v)", c, x)
		}
		a.Set(c, int(x))
	}
	return a, nil
}

// verdict is the outcome of checking one answer.
type verdict struct {
	fail string // "" when every check passed
	// objective is the model's value at the returned allocation; gap is its
	// relative excess over the exact optimum; predErr is its relative
	// distance from the executed run.
	objective, gap, predErr float64
}

// check applies every per-operation check to an answer: a usable decision,
// layout feasibility (n_ice + n_lnd ≤ n_atm, n_atm + n_ocn ≤ N, via
// cesm.Run), membership of the allowed sets, a reported objective that
// matches the allocation, and an objective within qualityTol of the exact
// optimum. executed, if > 0, is the total of a run already made with this
// allocation; otherwise check runs one.
func check(in *instance, a answer, executed float64) verdict {
	if a.err != "" {
		return verdict{fail: a.err}
	}
	if executed <= 0 {
		t, err := cesm.Run(cesm.Config{
			Resolution: in.spec.Resolution, Layout: in.spec.Layout,
			TotalNodes: in.spec.TotalNodes, Alloc: a.alloc, Seed: in.fitSeed,
		})
		if err != nil {
			return verdict{fail: "infeasible: " + err.Error()}
		}
		executed = t.Total
	}
	for _, c := range []cesm.Component{cesm.ATM, cesm.OCN} {
		limit := cesm.AtmMaxNodes(in.spec.Resolution)
		if c == cesm.OCN {
			limit = cesm.OceanMaxNodes(in.spec.Resolution)
		}
		allowed := candidates(in.spec, c, min(in.spec.TotalNodes, limit))
		n := a.alloc.Get(c)
		if i := sort.SearchInts(allowed, n); i == len(allowed) || allowed[i] != n {
			return verdict{fail: fmt.Sprintf("n_%s = %d is outside its allowed set", c, n)}
		}
	}
	v := verdict{}
	v.objective, _ = core.PredictTotal(in.spec, a.alloc)
	v.gap = (v.objective - in.ref) / in.ref
	v.predErr = math.Abs(v.objective-executed) / executed
	switch {
	case math.Abs(a.reported-v.objective) > consistencyTol*v.objective:
		v.fail = fmt.Sprintf("reported objective %.6f but the allocation is worth %.6f", a.reported, v.objective)
	case v.gap < -1e-9:
		v.fail = fmt.Sprintf("objective %.6f is below the exact optimum %.6f", v.objective, in.ref)
	case v.gap > qualityTol:
		v.fail = fmt.Sprintf("objective %.6f is %.2e above the exact optimum %.6f", v.objective, v.gap, in.ref)
	}
	return v
}
