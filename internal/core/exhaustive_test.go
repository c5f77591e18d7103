package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"hslb/internal/cesm"
	"hslb/internal/perf"
)

// bruteForce enumerates the min-max Table I model literally: every count
// each component's domain allows (the hard-coded sets where constrained,
// multiples of four at 1/8°, the caps), every ice/land pair with
// n_ice + n_lnd ≤ n_atm that passes the sync filter on layout 1, and every
// count up to N − n_ocn for the components sharing the machine with the
// ocean on layout 2. Inner minima are hoisted out of the loops they do not
// depend on; nothing else is pruned. It returns +Inf when nothing is
// feasible.
func bruteForce(s Spec) float64 {
	N := s.TotalNodes
	capAtm := min(N, cesm.AtmMaxNodes(s.Resolution))
	capOcn := min(N, cesm.OceanMaxNodes(s.Resolution))
	in := func(v int, set []int) bool {
		for _, x := range set {
			if x == v {
				return true
			}
		}
		return false
	}
	allowed := func(c cesm.Component, n int) bool {
		switch {
		case c == cesm.OCN && s.ConstrainOcean:
			return n <= capOcn && in(n, cesm.OceanSet(s.Resolution))
		case c == cesm.OCN:
			return n <= capOcn && (s.Resolution == cesm.Res1Deg || n%cesm.OceanNodeMultiple == 0)
		case c == cesm.ATM && s.Resolution == cesm.Res1Deg && s.ConstrainAtm:
			return n <= capAtm && in(n, cesm.AtmSet(s.Resolution, 0))
		case c == cesm.ATM:
			return n <= capAtm && (s.Resolution == cesm.Res1Deg || n%cesm.AtmNodeMultiple == 0)
		}
		return n <= N
	}
	t := map[cesm.Component][]float64{}
	for _, c := range cesm.OptimizedComponents {
		t[c] = make([]float64, N+1)
		for n := 1; n <= N; n++ {
			t[c][n] = s.Perf[c].Eval(float64(n))
		}
	}
	// fastest is the best time of c over its allowed counts in 1..max.
	fastest := func(c cesm.Component, max int) float64 {
		best := math.Inf(1)
		for n := 1; n <= max; n++ {
			if allowed(c, n) {
				best = math.Min(best, t[c][n])
			}
		}
		return best
	}

	best := math.Inf(1)
	switch s.Layout {
	case cesm.Layout1:
		for na := 1; na <= N; na++ {
			if !allowed(cesm.ATM, na) {
				continue
			}
			split := math.Inf(1)
			for ni := 1; ni < na; ni++ {
				for nl := 1; ni+nl <= na; nl++ {
					ti, tl := t[cesm.ICE][ni], t[cesm.LND][nl]
					if s.SyncTol > 0 && math.Abs(ti-tl) > s.SyncTol {
						continue
					}
					split = math.Min(split, math.Max(ti, tl))
				}
			}
			for no := 1; na+no <= N; no++ {
				if allowed(cesm.OCN, no) {
					best = math.Min(best, math.Max(split+t[cesm.ATM][na], t[cesm.OCN][no]))
				}
			}
		}
	case cesm.Layout2:
		for no := 1; no < N; no++ {
			if allowed(cesm.OCN, no) {
				seq := fastest(cesm.ICE, N-no) + fastest(cesm.LND, N-no) + fastest(cesm.ATM, N-no)
				best = math.Min(best, math.Max(seq, t[cesm.OCN][no]))
			}
		}
	case cesm.Layout3:
		best = fastest(cesm.ICE, N) + fastest(cesm.LND, N) + fastest(cesm.ATM, N) + fastest(cesm.OCN, N)
	}
	return best
}

// uShapedSpec gives every component a fitted curve with B > 0 and C > 1,
// whose minimum lies inside the machine: more nodes past it only slow the
// component down. Spec.Validate accepts such fits.
func uShapedSpec(res cesm.Resolution, layout cesm.Layout, total int) Spec {
	s := truthSpec(res, layout, total)
	s.Perf = map[cesm.Component]perf.Model{
		cesm.ATM: {A: 4000, B: 0.05, C: 1.5, D: 5},
		cesm.OCN: {A: 500, B: 0.02, C: 1.5, D: 2},
		cesm.ICE: {A: 50, B: 0.5, C: 1.5, D: 1},
		cesm.LND: {A: 50, B: 0.5, C: 1.5, D: 1},
	}
	return s
}

// TestExhaustiveMatchesBruteForce holds ExhaustiveSearch to the literal
// enumeration of Table I on every layout, with and without the sync
// tolerance, on fitted-truth and U-shaped curves, constrained and free.
func TestExhaustiveMatchesBruteForce(t *testing.T) {
	sizes := []struct {
		res   cesm.Resolution
		total int
	}{{cesm.Res1Deg, 128}, {cesm.Res1Deg, 300}, {cesm.Res8thDeg, 600}}
	for _, sz := range sizes {
		for _, layout := range []cesm.Layout{cesm.Layout1, cesm.Layout2, cesm.Layout3} {
			for _, shape := range []string{"truth", "u-shaped"} {
				for _, constrained := range []bool{true, false} {
					for _, syncTol := range []float64{0, 2} {
						if syncTol > 0 && layout != cesm.Layout1 {
							continue // Table I applies the tolerance to layout 1 only
						}
						s := truthSpec(sz.res, layout, sz.total)
						if shape == "u-shaped" {
							s = uShapedSpec(sz.res, layout, sz.total)
						}
						s.ConstrainOcean, s.ConstrainAtm, s.SyncTol = constrained, constrained, syncTol
						name := fmt.Sprintf("%v/%d/%v/%s/constrained=%v/sync=%g", sz.res, sz.total, layout, shape, constrained, syncTol)
						t.Run(name, func(t *testing.T) {
							want := bruteForce(s)
							got, err := ExhaustiveSearch(s)
							if math.IsInf(want, 1) {
								if err == nil {
									t.Fatalf("brute force finds nothing feasible, exhaustive search answered %v", got.Alloc)
								}
								return
							}
							if err != nil {
								t.Fatalf("brute force %.9f, exhaustive search: %v", want, err)
							}
							if rel := math.Abs(got.PredictedTime-want) / want; rel > 1e-12 {
								t.Fatalf("exhaustive search %.12f (alloc %v), brute force %.12f", got.PredictedTime, got.Alloc, want)
							}
							if err := cesm.ValidateConfig(cesm.Config{
								Resolution: s.Resolution, Layout: s.Layout, TotalNodes: s.TotalNodes, Alloc: got.Alloc,
							}); err != nil {
								t.Fatalf("exhaustive allocation %v infeasible: %v", got.Alloc, err)
							}
							if s.SyncTol > 0 {
								if d := math.Abs(got.PredictedComp[cesm.ICE] - got.PredictedComp[cesm.LND]); d > s.SyncTol {
									t.Fatalf("ice/land times differ by %v, tolerance %v", d, s.SyncTol)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestExhaustiveFreesIceLandNodes: layout 1 only requires
// n_ice + n_lnd ≤ n_atm. With U-shaped ice and land curves the best split
// leaves atmosphere nodes idle; filling them with ice or land only slows
// those components down.
func TestExhaustiveFreesIceLandNodes(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 64)
	s.Perf = map[cesm.Component]perf.Model{
		cesm.ATM: {A: 4000, D: 5},
		cesm.OCN: {A: 500, D: 2},
		cesm.ICE: {A: 50, B: 0.5, C: 1.5, D: 1},
		cesm.LND: {A: 50, B: 0.5, C: 1.5, D: 1},
	}
	d, err := ExhaustiveSearch(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce(s); math.Abs(d.PredictedTime-want) > 1e-12*want || math.Abs(want-90.556) > 1e-3 {
		t.Fatalf("exhaustive search %.6f (alloc %v), brute force %.6f, want 90.556", d.PredictedTime, d.Alloc, want)
	}
	if d.Alloc.Ice != 5 || d.Alloc.Lnd != 5 {
		t.Fatalf("alloc %v, want ice 5 and land 5", d.Alloc)
	}
}

// TestExhaustiveAnswersTableIII: no Table III size is refused, and none
// costs more than a blink.
func TestExhaustiveAnswersTableIII(t *testing.T) {
	sizes := []struct {
		res   cesm.Resolution
		total int
	}{{cesm.Res1Deg, 128}, {cesm.Res1Deg, 2048}, {cesm.Res8thDeg, 8192}, {cesm.Res8thDeg, 32768}}
	for _, sz := range sizes {
		for _, layout := range []cesm.Layout{cesm.Layout1, cesm.Layout2} {
			for _, constrained := range []bool{true, false} {
				s := truthSpec(sz.res, layout, sz.total)
				s.ConstrainOcean = constrained
				start := time.Now()
				d, err := ExhaustiveSearch(s)
				took := time.Since(start)
				if err != nil {
					t.Errorf("%v/%d/%v constrained=%v: %v", sz.res, sz.total, layout, constrained, err)
					continue
				}
				if err := cesm.ValidateConfig(cesm.Config{
					Resolution: s.Resolution, Layout: s.Layout, TotalNodes: s.TotalNodes, Alloc: d.Alloc,
				}); err != nil {
					t.Errorf("%v/%d/%v constrained=%v: %v", sz.res, sz.total, layout, constrained, err)
				}
				if !raceEnabled && took > time.Second {
					t.Errorf("%v/%d/%v constrained=%v took %v", sz.res, sz.total, layout, constrained, took)
				}
			}
		}
	}
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	s.Objective = MinSum
	if _, err := ExhaustiveSearch(s); !errors.Is(err, ErrExhaustiveObjective) {
		t.Fatalf("min-sum: err = %v, want ErrExhaustiveObjective", err)
	}
}
