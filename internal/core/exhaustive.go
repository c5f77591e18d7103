package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hslb/internal/cesm"
	"hslb/internal/perf"
)

// Exhaustive search answers the min-max Table I model exactly by direct
// search over the discrete allowed sets: the pipeline's last solve rung and
// the engine of the min-max §IV-C sweeps. Each component curve is
// tabulated once per node count and reduced to prefix minima, so layout 1
// costs O(N log N) (O(N²) with a sync tolerance) and layouts 2 and 3 O(N),
// and no Table III size needs a gate.

// ErrExhaustiveObjective means the objective is not MinMax.
var ErrExhaustiveObjective = errors.New("core: exhaustive search supports only the min-max objective")

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

// prefixMin holds, for each k, the smallest f(n) over allowed n ≤ k (at[k],
// +Inf when there is none) and the smallest n attaining it (arg[k], else
// 0). Minima over "n ≤ k" are what the Table I inequalities need: fitted
// curves with B > 0 are U-shaped, so a component given room for k nodes
// may run fastest on fewer.
type prefixMin struct {
	at  []float64
	arg []int
}

func newPrefixMin(max int, allowed []int, f func(n int) float64) prefixMin {
	p := prefixMin{at: make([]float64, max+1), arg: make([]int, max+1)}
	for k := range p.at {
		p.at[k] = math.Inf(1)
	}
	for _, n := range allowed {
		p.at[n], p.arg[n] = f(n), n
	}
	for k := 1; k <= max; k++ {
		if p.at[k-1] <= p.at[k] {
			p.at[k], p.arg[k] = p.at[k-1], p.arg[k-1]
		}
	}
	return p
}

func timeOf(m perf.Model) func(int) float64 {
	return func(n int) float64 { return m.Eval(float64(n)) }
}

// ExhaustiveSearch solves the MinMax allocation problem exactly by direct
// search over the discrete candidate sets: derivative-free, immune to
// solver numerics, and fast enough for every Table III size.
func ExhaustiveSearch(s Spec) (*Decision, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Objective != MinMax {
		return nil, ErrExhaustiveObjective
	}
	N := s.TotalNodes
	capAtm := min(N, cesm.AtmMaxNodes(s.Resolution))
	capOcn := min(N, cesm.OceanMaxNodes(s.Resolution))
	ocnC := candidateCounts(s, cesm.OCN, capOcn)
	atmC := candidateCounts(s, cesm.ATM, capAtm)
	all := candidateCounts(s, cesm.ICE, N)
	to := timeOf(s.Perf[cesm.OCN])

	// A component or split with no feasible count is +Inf, which never
	// wins a comparison, so empty candidate sets need no special case.
	best := math.Inf(1)
	var bestAlloc cesm.Allocation
	switch s.Layout {
	case cesm.Layout1:
		// T = max(max(t_ice, t_lnd) + t_atm, t_ocn) with atm + ocn ≤ N and
		// ice + lnd ≤ atm. seq is the best split plus atmosphere over the
		// atmosphere candidates up to each count, so each ocean candidate
		// is one lookup at N − ocn.
		split := iceLandSplit(s, capAtm)
		ta := timeOf(s.Perf[cesm.ATM])
		seq := newPrefixMin(capAtm, atmC, func(na int) float64 {
			t, _, _ := split(na)
			return t + ta(na)
		})
		for _, no := range ocnC {
			k := min(N-no, capAtm)
			if total := math.Max(seq.at[k], to(no)); total < best {
				best, bestAlloc = total, cesm.Allocation{Atm: seq.arg[k], Ocn: no}
			}
		}
		_, bestAlloc.Ice, bestAlloc.Lnd = split(bestAlloc.Atm)
	case cesm.Layout2:
		// Each of atm/ice/lnd shares the machine with the ocean only, so
		// for a fixed ocean count each picks its own best count in
		// 1..N−ocn independently.
		atm := newPrefixMin(capAtm, atmC, timeOf(s.Perf[cesm.ATM]))
		ice := newPrefixMin(N, all, timeOf(s.Perf[cesm.ICE]))
		lnd := newPrefixMin(N, all, timeOf(s.Perf[cesm.LND]))
		for _, no := range ocnC {
			rem := N - no
			ka := min(rem, capAtm)
			if total := math.Max(ice.at[rem]+lnd.at[rem]+atm.at[ka], to(no)); total < best {
				best = total
				bestAlloc = cesm.Allocation{Atm: atm.arg[ka], Ocn: no, Ice: ice.arg[rem], Lnd: lnd.arg[rem]}
			}
		}
	case cesm.Layout3:
		// Fully sequential: every component runs alone, so each minimizes
		// its own time independently under its cap.
		atm := newPrefixMin(capAtm, atmC, timeOf(s.Perf[cesm.ATM]))
		ocn := newPrefixMin(capOcn, ocnC, to)
		ice := newPrefixMin(N, all, timeOf(s.Perf[cesm.ICE]))
		lnd := newPrefixMin(N, all, timeOf(s.Perf[cesm.LND]))
		best = atm.at[capAtm] + ocn.at[capOcn] + ice.at[N] + lnd.at[N]
		bestAlloc = cesm.Allocation{Atm: atm.arg[capAtm], Ocn: ocn.arg[capOcn], Ice: ice.arg[N], Lnd: lnd.arg[N]}
	default:
		return nil, fmt.Errorf("core: unknown layout %v", s.Layout)
	}

	if math.IsInf(best, 1) {
		return nil, fmt.Errorf("core: exhaustive search found no feasible allocation at N=%d", N)
	}
	d := &Decision{
		Alloc:         bestAlloc,
		PredictedComp: map[cesm.Component]float64{},
	}
	for _, c := range cesm.OptimizedComponents {
		d.PredictedComp[c] = s.Perf[c].Eval(float64(bestAlloc.Get(c)))
	}
	d.PredictedTime = cesm.ComposeTotal(s.Layout, d.PredictedComp)
	return d, nil
}

// iceLandSplit returns the best layout-1 ice/land placement inside na
// atmosphere nodes, min over n_ice + n_lnd ≤ na of max(t_ice, t_lnd), as
// (time, n_ice, n_lnd); the time is +Inf when no placement is feasible.
func iceLandSplit(s Spec, capAtm int) func(na int) (float64, int, int) {
	all := candidateCounts(s, cesm.ICE, capAtm)
	ti, tl := timeOf(s.Perf[cesm.ICE]), timeOf(s.Perf[cesm.LND])
	if s.SyncTol == 0 {
		// Giving land k nodes leaves ice the best count ≤ na − k: the ice
		// time grows with k and the land time shrinks, so the optimum sits
		// where they cross — at the first k with ice ≥ land, or just
		// before it.
		ice, lnd := newPrefixMin(capAtm, all, ti), newPrefixMin(capAtm, all, tl)
		return func(na int) (float64, int, int) {
			best, ni, nl := math.Inf(1), 0, 0
			cross := 1 + sort.Search(na-1, func(j int) bool { return ice.at[na-1-j] >= lnd.at[1+j] })
			for k := max(cross-1, 1); k <= min(cross, na-1); k++ {
				if t := math.Max(ice.at[na-k], lnd.at[k]); t < best {
					best, ni, nl = t, ice.arg[na-k], lnd.arg[k]
				}
			}
			return best, ni, nl
		}
	}
	// The sync tolerance |t_ice − t_lnd| ≤ SyncTol ties the two counts
	// together and breaks the crossing argument: take the best pair for
	// every exact sum in one pass over the tabulated curves, then a prefix
	// minimum over the sums.
	tIce, tLnd := make([]float64, capAtm+1), make([]float64, capAtm+1)
	bySum, iceOf := make([]float64, capAtm+1), make([]int, capAtm+1)
	for n := range bySum {
		tIce[n], tLnd[n], bySum[n] = ti(n), tl(n), math.Inf(1)
	}
	for ni := 1; ni < capAtm; ni++ {
		// sums[j] is bySum at land count j+1, so at the sum ni + j + 1.
		a, sums := tIce[ni], bySum[ni+1:]
		for j, b := range tLnd[1 : capAtm-ni+1] {
			if math.Abs(a-b) <= s.SyncTol && max(a, b) < sums[j] {
				sums[j], iceOf[ni+1+j] = max(a, b), ni
			}
		}
	}
	upTo := newPrefixMin(capAtm, all, func(n int) float64 { return bySum[n] })
	return func(na int) (float64, int, int) {
		n := upTo.arg[na]
		return upTo.at[na], iceOf[n], n - iceOf[n]
	}
}
