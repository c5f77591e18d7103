package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hslb/internal/cesm"
)

// candidateCounts enumerates the allowed node counts for one component up
// to max (Table I lines 5-6, 29-31): hard-coded sets where constrained,
// decomposition multiples at 1/8°, and the full 1..max range otherwise.
// The Table I writer behind BuildModel and WriteAMPL takes its selection
// sets from it.
func candidateCounts(s Spec, c cesm.Component, max int) []int {
	var set []int
	step := 1
	switch {
	case c == cesm.OCN && s.ConstrainOcean:
		set = cesm.OceanSet(s.Resolution)
	case c == cesm.ATM && s.Resolution == cesm.Res1Deg && s.ConstrainAtm:
		set = cesm.AtmSet(s.Resolution, max)
	case c == cesm.OCN && s.Resolution == cesm.Res8thDeg:
		step = cesm.OceanNodeMultiple
	case c == cesm.ATM && s.Resolution == cesm.Res8thDeg:
		step = cesm.AtmNodeMultiple
	}
	out := make([]int, 0, max/step)
	for v := step; set == nil && v <= max; v += step {
		out = append(out, v)
	}
	for _, v := range set {
		if v >= 1 && v <= max {
			out = append(out, v)
		}
	}
	return out
}

// countTable holds one cost per node count k, at[k], attained at the count
// arg[k]; +Inf and 0 where no allowed count gives one.
type countTable struct {
	at  []float64
	arg []int
}

func tabulate(max int, allowed []int, f func(n int) float64) countTable {
	p := countTable{at: make([]float64, max+1), arg: make([]int, max+1)}
	for k := range p.at {
		p.at[k] = math.Inf(1)
	}
	for _, n := range allowed {
		p.at[n], p.arg[n] = f(n), n
	}
	return p
}

// prefixMin reduces the table in place to prefix minima, the smallest cost
// over allowed n ≤ k at the smallest such n: what the Table I inequalities
// need, since a U-shaped curve (B > 0) given k nodes may run best on fewer.
func (p countTable) prefixMin() countTable {
	for k := 1; k < len(p.at); k++ {
		if p.at[k-1] <= p.at[k] {
			p.at[k], p.arg[k] = p.at[k-1], p.arg[k-1]
		}
	}
	return p
}

// combine adds up the costs of two components: one after the other (sumOf)
// or side by side (maxOf).
type combine bool

const sumOf, maxOf combine = false, true

func (c combine) of(a, b float64) float64 {
	if c == maxOf {
		return max(a, b)
	}
	return a + b
}

// ExhaustiveSearch solves the Table I allocation problem exactly by direct
// search over the allowed sets, for every spec BuildModel accepts: the
// answer to the nonconvex specs, the pipeline's last solve rung and the
// engine of the §IV-C sweeps. Each objective is a minimum of combined
// costs, the component times (negated for max-min): min-max sums what runs
// in sequence and takes the max of what runs side by side, min-sum sums
// all four, max-min takes the max of all four. Each combination is
// monotone in every cost, so each part of a layout is minimized on its
// own, the ocean last. Layouts 2 and 3 cost O(N), min-max layout 1
// O(N log N) and layout 1's other cases O(N²), at every Table III size.
func ExhaustiveSearch(s Spec) (*Decision, error) {
	return exhaustiveSearch(context.Background(), s)
}

// exhaustiveSearch is ExhaustiveSearch under a context, which its O(N²)
// pairing loops poll once per row: a search cut short returns ctx.Err().
func exhaustiveSearch(ctx context.Context, s Spec) (*Decision, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sign, seq, par := 1.0, sumOf, maxOf
	switch s.Objective {
	case MinMax:
	case MinSum:
		par = sumOf
	case MaxMin:
		sign, seq = -1, maxOf
	default:
		return nil, fmt.Errorf("core: unknown objective %v", s.Objective)
	}
	cost := func(c cesm.Component) func(int) float64 {
		m := s.Perf[c]
		return func(n int) float64 { return sign * m.Eval(float64(n)) }
	}
	N := s.TotalNodes
	capAtm := min(N, cesm.AtmMaxNodes(s.Resolution))
	atmC := candidateCounts(s, cesm.ATM, capAtm)

	// rest.at[k] is the best cost of atm, ice and lnd inside k nodes and
	// place(k) their counts; the ocean joins rest by join, leaving room(no)
	// nodes. An infeasible part costs +Inf, so empty sets need no care.
	var rest countTable
	var place func(k int) cesm.Allocation
	join, room := par, func(no int) int { return N - no }
	switch s.Layout {
	case cesm.Layout1:
		// par(seq(par(ice, lnd), atm), ocn) with atm + ocn ≤ N and
		// ice + lnd ≤ atm, both equalities under max-min (WriteAMPL).
		split, err := iceLandSplit(ctx, s, cost)
		if err != nil {
			return nil, err
		}
		ca := cost(cesm.ATM)
		rest = tabulate(N, atmC, func(na int) float64 {
			t, _, _ := split(na)
			return seq.of(t, ca(na))
		})
		if s.Objective != MaxMin {
			rest = rest.prefixMin()
		}
		place = func(k int) cesm.Allocation {
			_, ni, nl := split(rest.arg[k])
			return cesm.Allocation{Atm: rest.arg[k], Ice: ni, Lnd: nl}
		}
	case cesm.Layout2, cesm.Layout3:
		// atm, ice and lnd run in sequence, each on its best count inside
		// what the ocean leaves (layout 2) or the machine (layout 3).
		all := candidateCounts(s, cesm.ICE, N)
		atm := tabulate(N, atmC, cost(cesm.ATM)).prefixMin()
		ice, lnd := tabulate(N, all, cost(cesm.ICE)).prefixMin(), tabulate(N, all, cost(cesm.LND)).prefixMin()
		rest = tabulate(N, all, func(k int) float64 { return seq.of(seq.of(ice.at[k], lnd.at[k]), atm.at[k]) })
		place = func(k int) cesm.Allocation { return cesm.Allocation{Atm: atm.arg[k], Ice: ice.arg[k], Lnd: lnd.arg[k]} }
		if s.Layout == cesm.Layout3 {
			join, room = seq, func(int) int { return N }
		}
	default:
		return nil, fmt.Errorf("core: unknown layout %v", s.Layout)
	}
	best, bestOcn, co := math.Inf(1), 0, cost(cesm.OCN)
	for _, no := range candidateCounts(s, cesm.OCN, min(N, cesm.OceanMaxNodes(s.Resolution))) {
		if total := join.of(rest.at[room(no)], co(no)); total < best {
			best, bestOcn = total, no
		}
	}
	if math.IsInf(best, 1) {
		return nil, fmt.Errorf("core: exhaustive search found no feasible allocation at N=%d", N)
	}
	alloc := place(room(bestOcn))
	alloc.Ocn = bestOcn
	total, comp := PredictTotal(s, alloc)
	return &Decision{Alloc: alloc, PredictedComp: comp, PredictedTime: total}, nil
}

// iceLandSplit returns the best layout-1 ice/land placement inside each
// allowed atmosphere count na, the smallest par(cost_ice, cost_lnd) over
// n_ice + n_lnd ≤ na (= na under max-min), as (cost, n_ice, n_lnd).
func iceLandSplit(ctx context.Context, s Spec, cost func(cesm.Component) func(int) float64) (func(na int) (float64, int, int), error) {
	capAtm := min(s.TotalNodes, cesm.AtmMaxNodes(s.Resolution))
	all := candidateCounts(s, cesm.ICE, capAtm)
	ice, lnd := tabulate(capAtm, all, cost(cesm.ICE)), tabulate(capAtm, all, cost(cesm.LND))
	le := s.Objective != MaxMin // the capacity is n_ice + n_lnd ≤ na
	if le && s.SyncTol == 0 {
		// Prefix minima let a pair using exactly na nodes stand for fewer.
		ice, lnd = ice.prefixMin(), lnd.prefixMin()
	}
	if s.Objective == MinMax && s.SyncTol == 0 {
		// Giving land k nodes leaves ice the best count ≤ na − k: the ice
		// time grows with k and the land time shrinks, so the optimum sits
		// where they cross — at the first k with ice ≥ land, or just
		// before it.
		return func(na int) (float64, int, int) {
			best, ni, nl := math.Inf(1), 0, 0
			cross := 1 + sort.Search(na-1, func(j int) bool { return ice.at[na-1-j] >= lnd.at[1+j] })
			for k := max(cross-1, 1); k <= min(cross, na-1); k++ {
				if t := math.Max(ice.at[na-k], lnd.at[k]); t < best {
					best, ni, nl = t, ice.arg[na-k], lnd.arg[k]
				}
			}
			return best, ni, nl
		}, nil
	}
	par := combine(s.Objective != MinSum) // maxOf, but sumOf under min-sum
	pairs := tabulate(capAtm, nil, nil)   // best pair per sum n, arg[n] a position in ice
	if s.SyncTol > 0 {
		// |t_ice − t_lnd| ≤ SyncTol ties the raw counts together, so every
		// sum counts: pair them row by row, as the tolerance rejects most
		// pairs.
		for ni := 1; ni < capAtm; ni++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			a, at, arg := ice.at[ni], pairs.at[ni+1:], pairs.arg[ni+1:]
			for j, b := range lnd.at[1 : capAtm-ni+1] {
				if math.Abs(a-b) <= s.SyncTol && par.of(a, b) < at[j] {
					at[j], arg[j] = par.of(a, b), ni
				}
			}
		}
	} else {
		// Only the sums the atmosphere can hold, one column each: at 1/8°
		// every AtmNodeMultiple-th, where pairing every sum takes about a
		// second at 32 768 nodes.
		for _, n := range candidateCounts(s, cesm.ATM, capAtm) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			best, arg := math.Inf(1), 0
			for ni := 1; ni < n; ni++ {
				if v := par.of(ice.at[ni], lnd.at[n-ni]); v < best {
					best, arg = v, ni
				}
			}
			pairs.at[n], pairs.arg[n] = best, arg
		}
	}
	upTo := tabulate(capAtm, all, func(n int) float64 { return pairs.at[n] })
	if le {
		upTo = upTo.prefixMin()
	}
	return func(na int) (float64, int, int) {
		n := upTo.arg[na]
		ni := pairs.arg[n]
		return upTo.at[na], ice.arg[ni], lnd.arg[n-ni]
	}, nil
}
