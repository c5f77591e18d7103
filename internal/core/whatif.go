package core

import (
	"hslb/internal/cesm"
	"hslb/internal/perf"
)

// This file implements the remaining §IV-C applications: estimating "the
// effect of constraints or 'sweet' spots on scaling/efficiency of CESM,
// which component layout is more or less scalable; how replacing one
// component with another will affect scaling".

// ConstraintCostPoint quantifies what a discrete allowed set costs at one
// machine size.
type ConstraintCostPoint struct {
	TotalNodes    int
	Constrained   float64 // optimal total with the ocean set enforced
	Unconstrained float64 // optimal total with the set lifted
	// Penalty is Constrained/Unconstrained − 1: the fraction of time lost
	// to the hard-coded set (≥ 0 up to solver tolerance).
	Penalty float64
}

// EffectOfOceanConstraint sweeps machine sizes and prices the hard-coded
// ocean node-count set — the analysis behind the paper's observation that
// "component models processor counts should not be arbitrarily limited".
func EffectOfOceanConstraint(spec Spec, sizes []int) ([]ConstraintCostPoint, error) {
	var out []ConstraintCostPoint
	for _, n := range sizes {
		s := spec
		s.TotalNodes, s.ConstrainOcean = n, true
		free := s
		free.ConstrainOcean = false
		con, unc, err := searchBoth(s, free)
		if err != nil {
			return nil, err
		}
		p := ConstraintCostPoint{
			TotalNodes:    n,
			Constrained:   con.PredictedTime,
			Unconstrained: unc.PredictedTime,
		}
		if unc.PredictedTime > 0 {
			p.Penalty = con.PredictedTime/unc.PredictedTime - 1
		}
		out = append(out, p)
	}
	return out, nil
}

// ReplacementEffect compares the optimized totals before and after swapping
// one component's performance model — the paper's "how replacing one
// component with another will affect scaling" (e.g. a rewritten ocean model
// that is twice as fast).
type ReplacementEffect struct {
	TotalNodes int
	Before     float64
	After      float64
	// Speedup is Before/After.
	Speedup float64
	// AllocBefore/AllocAfter show how the optimizer reshuffles nodes in
	// response to the replacement.
	AllocBefore, AllocAfter cesm.Allocation
}

// EffectOfReplacement re-optimizes with component comp replaced by newModel
// at each machine size.
func EffectOfReplacement(spec Spec, comp cesm.Component, newModel perf.Model, sizes []int) ([]ReplacementEffect, error) {
	var out []ReplacementEffect
	for _, n := range sizes {
		before := spec
		before.TotalNodes = n
		after := before
		after.Perf = map[cesm.Component]perf.Model{}
		for c, m := range spec.Perf {
			after.Perf[c] = m
		}
		after.Perf[comp] = newModel
		db, da, err := searchBoth(before, after)
		if err != nil {
			return nil, err
		}
		eff := ReplacementEffect{
			TotalNodes:  n,
			Before:      db.PredictedTime,
			After:       da.PredictedTime,
			AllocBefore: db.Alloc,
			AllocAfter:  da.Alloc,
		}
		if da.PredictedTime > 0 {
			eff.Speedup = db.PredictedTime / da.PredictedTime
		}
		out = append(out, eff)
	}
	return out, nil
}

// searchBoth solves both sides of a what-if comparison exactly.
func searchBoth(a, b Spec) (*Decision, *Decision, error) {
	da, err := ExhaustiveSearch(a)
	if err != nil {
		return nil, nil, err
	}
	db, err := ExhaustiveSearch(b)
	return da, db, err
}

// ScaledModel returns the model sped up by the given factor (>1 = faster):
// all time contributions divide by the factor, preserving the curve shape.
func ScaledModel(m perf.Model, factor float64) perf.Model {
	return perf.Model{A: m.A / factor, B: m.B / factor, C: m.C, D: m.D / factor}
}
