package core

import (
	"errors"
	"sort"

	"hslb/internal/cesm"
)

// This file implements the §IV-C application of HSLB: "the prediction of
// the optimal nodes to run a job. The definition of optimal depends on the
// goal; it could be a cost-efficient goal where nodes are increased until
// scaling is reduced to a predefined limit or it could be the shortest time
// to solution."

// AdvisorPoint is one machine size in a node-count sweep.
type AdvisorPoint struct {
	TotalNodes int
	// Predicted is the optimal (min-max) total time at this size.
	Predicted float64
	// Alloc is the optimal allocation at this size.
	Alloc cesm.Allocation
	// Efficiency is the parallel efficiency relative to the smallest swept
	// size: (T₀·N₀)/(T·N). 1 means perfect scaling from the baseline.
	Efficiency float64
	// CoreHoursPerSimYear is the compute cost of one simulated year at this
	// size, assuming the benchmark's 5-day runs and 4 cores per node.
	CoreHoursPerSimYear float64
}

// Advice is the outcome of AdviseNodeCount.
type Advice struct {
	Points []AdvisorPoint
	// ShortestTime is the swept size with the smallest predicted total.
	ShortestTime int
	// CostEfficient is the largest swept size whose efficiency stays at or
	// above the threshold.
	CostEfficient int
}

// ErrNoCandidates is returned when the sweep list is empty.
var ErrNoCandidates = errors.New("core: no candidate node counts")

// AdviseNodeCount sweeps candidate machine sizes, solving the allocation
// problem exactly at each, and reports both notions of the optimal job size.
// effThreshold is the minimum acceptable parallel efficiency for the
// cost-efficient recommendation (e.g. 0.7).
func AdviseNodeCount(spec Spec, candidates []int, effThreshold float64) (*Advice, error) {
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	sizes := append([]int(nil), candidates...)
	sort.Ints(sizes)

	out := &Advice{}
	for _, n := range sizes {
		s := spec
		s.TotalNodes = n
		dec, err := ExhaustiveSearch(s)
		if err != nil {
			return nil, err
		}
		p := AdvisorPoint{
			TotalNodes: n,
			Predicted:  dec.PredictedTime,
			Alloc:      dec.Alloc,
		}
		// Benchmark totals are 5-day runs: scale to core-hours per
		// simulated year.
		const daysPerYear = 365.0
		const benchDays = 5.0
		p.CoreHoursPerSimYear = p.Predicted * float64(n) * cesm.CoresPerNode / 3600 * (daysPerYear / benchDays)
		out.Points = append(out.Points, p)
	}
	base := out.Points[0]
	bestTime, bestIdx := base.Predicted, 0
	for i := range out.Points {
		p := &out.Points[i]
		p.Efficiency = (base.Predicted * float64(base.TotalNodes)) / (p.Predicted * float64(p.TotalNodes))
		if p.Efficiency > 1 {
			p.Efficiency = 1 // superlinear artifacts from discrete sets
		}
		if p.Predicted < bestTime {
			bestTime, bestIdx = p.Predicted, i
		}
	}
	out.ShortestTime = out.Points[bestIdx].TotalNodes
	out.CostEfficient = base.TotalNodes
	for _, p := range out.Points {
		if p.Efficiency >= effThreshold {
			out.CostEfficient = p.TotalNodes
		}
	}
	return out, nil
}
