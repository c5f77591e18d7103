package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of the samples by
// linear interpolation between closest ranks, 0 for no samples. It sorts a
// copy.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t / float64(len(samples))
}

// typical is the median of each group's samples, averaged over all samples:
// a group of n samples counts n times. The operations of a workload are a
// mixture of rungs whose costs differ up to thirty-fold. The median of the
// pooled mixture sits in the gap between two rungs and jumps with the seed,
// and the plain mean moves with every outlier; the per-rung medians do
// neither.
func typical(groups map[string][]float64) float64 {
	t, n := 0.0, 0
	for _, g := range groups {
		t += median(g) * float64(len(g))
		n += len(g)
	}
	if n == 0 {
		return 0
	}
	return t / float64(n)
}
