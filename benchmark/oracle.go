package main

import (
	"fmt"
	"math"
	"sort"

	"hslb/internal/cesm"
	"hslb/internal/core"
)

// exactOptimum returns the global optimum of the layout-1 min-max Table I
// model for the spec, by a direct O(N log N) search that shares no code with
// the solvers under test. It is the reference every benchmark operation is
// checked against: core.ExhaustiveSearch is exact too but cubic in N, so its
// own gate refuses everything past N = 256.
//
// The model is min max(max(t_ice(n_i), t_lnd(n_l)) + t_atm(n_a), t_ocn(n_o))
// with n_i + n_l ≤ n_a, n_a + n_o ≤ N, and n_a, n_o restricted to their
// candidate sets. With P_c[k] = min over n ≤ k of t_c(n), the best ice/land
// split inside n_a nodes is min over k of max(P_ice[n_a−k], P_lnd[k]); the
// first argument grows with k and the second shrinks, so the minimum sits at
// their crossing, found by bisection. A prefix minimum over the atmosphere
// candidates then answers every ocean candidate in O(1).
func exactOptimum(s core.Spec) (float64, error) {
	if s.Layout != cesm.Layout1 || s.Objective != core.MinMax || s.SyncTol != 0 {
		return 0, fmt.Errorf("oracle: only the layout-1 min-max model without a sync tolerance is supported")
	}
	N := s.TotalNodes
	capAtm := min(N, cesm.AtmMaxNodes(s.Resolution))
	capOcn := min(N, cesm.OceanMaxNodes(s.Resolution))
	atmC := candidates(s, cesm.ATM, capAtm)
	ocnC := candidates(s, cesm.OCN, capOcn)

	prefixMin := func(c cesm.Component) []float64 {
		p := make([]float64, N+1)
		p[0] = math.Inf(1)
		for n := 1; n <= N; n++ {
			p[n] = math.Min(p[n-1], s.Perf[c].Eval(float64(n)))
		}
		return p
	}
	pIce, pLnd := prefixMin(cesm.ICE), prefixMin(cesm.LND)

	// seq[i] is the best max(ice, lnd) + atm over atmosphere candidates
	// atmC[0..i].
	seq := make([]float64, len(atmC))
	best := math.Inf(1)
	for i, na := range atmC {
		if na >= 2 {
			// Smallest k in [1, na-1] with pIce[na-k] >= pLnd[k].
			k := 1 + sort.Search(na-1, func(j int) bool { return pIce[na-1-j] >= pLnd[1+j] })
			split := math.Inf(1)
			for _, kk := range []int{k - 1, k} {
				if kk >= 1 && kk <= na-1 {
					split = math.Min(split, math.Max(pIce[na-kk], pLnd[kk]))
				}
			}
			best = math.Min(best, split+s.Perf[cesm.ATM].Eval(float64(na)))
		}
		seq[i] = best
	}

	opt := math.Inf(1)
	for _, no := range ocnC {
		// Largest atmosphere candidate that still fits beside this ocean.
		i := sort.SearchInts(atmC, N-no+1) - 1
		if i < 0 {
			continue
		}
		opt = math.Min(opt, math.Max(seq[i], s.Perf[cesm.OCN].Eval(float64(no))))
	}
	if math.IsInf(opt, 1) {
		return 0, fmt.Errorf("oracle: no feasible allocation at N=%d", N)
	}
	return opt, nil
}

// candidates lists, ascending, the node counts the Table I model allows the
// atmosphere or the ocean: the hard-coded sets where constrained, the
// decomposition's multiples at 1/8°, every count otherwise
// (core.BuildModel's addAllowedSets).
func candidates(s core.Spec, c cesm.Component, max int) []int {
	var set []int
	mult := 1
	switch {
	case c == cesm.OCN && s.ConstrainOcean:
		set = cesm.OceanSet(s.Resolution)
	case c == cesm.ATM && s.Resolution == cesm.Res1Deg && s.ConstrainAtm:
		set = cesm.AtmSet(s.Resolution, max)
	case s.Resolution == cesm.Res8thDeg && c == cesm.ATM:
		mult = cesm.AtmNodeMultiple
	case s.Resolution == cesm.Res8thDeg:
		mult = cesm.OceanNodeMultiple
	}
	var out []int
	if set != nil {
		for _, v := range set {
			if v >= 1 && v <= max {
				out = append(out, v)
			}
		}
		sort.Ints(out)
		return out
	}
	for v := mult; v <= max; v += mult {
		out = append(out, v)
	}
	return out
}
