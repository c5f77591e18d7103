// Package manual implements the baseline HSLB competes against: the manual
// ("human expert") load-balancing procedure described in §II and §IV — plot
// scaling curves from a handful of runs, pick core counts by eye, then
// iterate run-adjust-rerun until the layout looks balanced. The paper
// reports this takes five to ten iterations of building, queueing and
// waiting; this package automates the same heuristic so experiments can
// reproduce the "Manual" columns of Table III and the "human guess" series
// of Figure 3.
package manual

import (
	"errors"
	"math"

	"hslb/internal/cesm"
)

// Options configures the expert emulation.
type Options struct {
	// Seed drives run-to-run noise; each iteration is a separate queue
	// submission with its own noise draw.
	Seed int64
}

const (
	// maxIters bounds the tuning loop: the paper's "five to ten
	// iterations".
	maxIters = 8
	// imbalanceTol is the relative imbalance the expert tolerates before
	// shifting nodes, between the atmosphere branch and the ocean branch
	// and between ice and land.
	imbalanceTol = 0.04
)

// Step is one iteration of the expert loop.
type Step struct {
	Alloc cesm.Allocation
	Total float64
}

// Result is the outcome of the manual procedure.
type Result struct {
	Alloc      cesm.Allocation
	Timing     *cesm.Timing
	Iterations int
	History    []Step
}

// ErrLayoutUnsupported is returned for layouts the expert heuristic does
// not know how to tune.
var ErrLayoutUnsupported = errors.New("manual: only layout 1 tuning is implemented (the paper's hybrid layout)")

// Optimize runs the expert procedure on the simulated machine.
func Optimize(res cesm.Resolution, layout cesm.Layout, total int, opt Options) (*Result, error) {
	if layout != cesm.Layout1 {
		return nil, ErrLayoutUnsupported
	}

	alloc := initialGuess(res, total)
	best := Result{Alloc: alloc}
	bestTotal := math.Inf(1)

	for iter := 0; iter < maxIters; iter++ {
		tm, err := cesm.Run(cesm.Config{
			Resolution: res, Layout: layout, TotalNodes: total,
			Alloc: alloc, Seed: opt.Seed + int64(iter)*7919,
		})
		if err != nil {
			return nil, err
		}
		best.History = append(best.History, Step{Alloc: alloc, Total: tm.Total})
		if tm.Total < bestTotal {
			bestTotal = tm.Total
			best.Alloc = alloc
			best.Timing = tm
			best.Iterations = iter + 1
		}
		next, changed := adjust(res, total, alloc, tm)
		if !changed {
			break
		}
		alloc = next
	}
	return &best, nil
}

// initialGuess is the expert's first layout: ocean gets roughly a fifth of
// the machine at an allowed count, the atmosphere the rest at a sweet spot,
// and ice/land split the atmosphere nodes 3:1 — the proportions visible in
// the paper's manual rows.
func initialGuess(res cesm.Resolution, total int) cesm.Allocation {
	ocn := snapOcean(res, total/5, total)
	atm := snapAtm(res, total-ocn, total-ocn)
	ice := atm * 3 / 4
	if ice < 1 {
		ice = 1
	}
	lnd := atm - ice
	if lnd < 1 {
		lnd = 1
		ice = atm - 1
	}
	return cesm.Allocation{Atm: atm, Ocn: ocn, Ice: ice, Lnd: lnd}
}

// adjust is one expert tuning move: balance the two concurrent branches
// (sequential atm+max(ice,lnd) vs ocean) by shifting ~10% of the smaller
// side's nodes, then rebalance ice vs land inside the shared pool.
func adjust(res cesm.Resolution, total int, a cesm.Allocation, tm *cesm.Timing) (cesm.Allocation, bool) {
	seq := math.Max(tm.Comp[cesm.ICE], tm.Comp[cesm.LND]) + tm.Comp[cesm.ATM]
	ocn := tm.Comp[cesm.OCN]
	out := a
	changed := false

	imbalance := (seq - ocn) / math.Max(seq, ocn)
	shift := maxInt(total/20, 2)
	switch {
	case imbalance > imbalanceTol:
		// Atmosphere branch is the bottleneck: take nodes from the ocean.
		newOcn := snapOcean(res, a.Ocn-shift, total)
		if newOcn >= a.Ocn {
			newOcn = oceanNeighbor(res, a.Ocn, total, -1)
		}
		if newOcn < a.Ocn && newOcn >= 2 {
			out.Ocn = newOcn
			out.Atm = snapAtm(res, total-newOcn, total-newOcn)
			changed = true
		}
	case imbalance < -imbalanceTol:
		// Ocean is the bottleneck: give it more nodes. When the allowed set
		// is sparse (the hard-coded 1/8° counts), a proportional shift may
		// land between set values, so step to the next allowed count.
		newOcn := snapOcean(res, a.Ocn+shift, total)
		if newOcn <= a.Ocn {
			newOcn = oceanNeighbor(res, a.Ocn, total, +1)
		}
		if newOcn > a.Ocn && total-newOcn >= 2 {
			out.Ocn = newOcn
			out.Atm = snapAtm(res, total-newOcn, total-newOcn)
			changed = true
		}
	}
	// Keep ice+lnd inside the (possibly new) atmosphere share, preserving
	// their ratio.
	if out.Ice+out.Lnd > out.Atm || changed {
		ratio := float64(a.Ice) / float64(a.Ice+a.Lnd)
		out.Ice = maxInt(1, int(ratio*float64(out.Atm)))
		out.Lnd = maxInt(1, out.Atm-out.Ice)
		if out.Ice+out.Lnd > out.Atm {
			out.Ice = out.Atm - out.Lnd
		}
	}
	// Rebalance ice vs land if one is clearly slower.
	ti, tl := tm.Comp[cesm.ICE], tm.Comp[cesm.LND]
	if math.Abs(ti-tl)/math.Max(ti, tl) > imbalanceTol {
		move := maxInt(out.Atm/20, 1)
		if ti > tl && out.Lnd > move {
			out.Ice += move
			out.Lnd -= move
			changed = true
		} else if tl > ti && out.Ice > move {
			out.Lnd += move
			out.Ice -= move
			changed = true
		}
	}
	if out == a {
		return a, false
	}
	return out, changed
}

// oceanNeighbor returns the next allowed ocean count in the given direction
// (+1 up, -1 down) that still leaves two nodes for the atmosphere, or the
// current value when none exists.
func oceanNeighbor(res cesm.Resolution, cur, total, dir int) int {
	set := cesm.OceanSet(res)
	best := cur
	for _, v := range set {
		if v > total-2 {
			continue
		}
		if dir > 0 && v > cur && (best == cur || v < best) {
			best = v
		}
		if dir < 0 && v < cur && (best == cur || v > best) {
			best = v
		}
	}
	return best
}

func snapOcean(res cesm.Resolution, want, total int) int {
	if want < 2 {
		want = 2
	}
	if max := cesm.OceanMaxNodes(res); want > max {
		want = max
	}
	set := cesm.OceanSet(res)
	// Pick the largest allowed count <= want that leaves room for atm.
	best := set[0]
	for _, v := range set {
		if v <= want && v > best && v <= total-2 {
			best = v
		}
	}
	return best
}

func snapAtm(res cesm.Resolution, want, cap int) int {
	if max := cesm.AtmMaxNodes(res); want > max {
		want = max
	}
	if want > cap {
		want = cap
	}
	if want < 2 {
		want = 2
	}
	if res == cesm.Res1Deg {
		return cesm.SnapToSweetSpot(want, cesm.AtmSet(res, want))
	}
	n := cesm.SnapToMultiple(want, cesm.AtmNodeMultiple)
	if n > cap {
		n -= cesm.AtmNodeMultiple
	}
	if n < 2 {
		n = 2
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
