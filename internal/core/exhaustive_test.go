package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"hslb/internal/cesm"
	"hslb/internal/perf"
)

// bruteForce enumerates the Table I model literally and returns its
// optimal objective value: every count each component's domain allows (the
// hard-coded sets where constrained, multiples of four at 1/8°, the caps),
// every ice/land pair with n_ice + n_lnd ≤ n_atm that passes the sync
// filter on layout 1, and every count up to N − n_ocn for the components
// sharing the machine with the ocean on layout 2. Under max-min the layout-1
// capacities are equalities, as WriteAMPL emits them. Inner optima are
// hoisted out of the loops they do not depend on; nothing else is pruned.
// It returns ±Inf, the objective's worst value, when nothing is feasible.
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
	times := func(c cesm.Component) []float64 {
		t := make([]float64, N+1)
		for n := 1; n <= N; n++ {
			t[n] = s.Perf[c].Eval(float64(n))
		}
		return t
	}
	ti, tl, ta, to := times(cesm.ICE), times(cesm.LND), times(cesm.ATM), times(cesm.OCN)

	// The objective in its own terms: how times combine one after the
	// other (seq) and side by side (par), and which value is better.
	maxMin := s.Objective == MaxMin
	seq := func(a, b float64) float64 { return a + b }
	par := math.Max
	switch s.Objective {
	case MinSum:
		par = seq
	case MaxMin:
		seq, par = math.Min, math.Min
	}
	better := func(a, b float64) bool { return a < b }
	worst := math.Inf(1)
	if maxMin {
		better = func(a, b float64) bool { return a > b }
		worst = math.Inf(-1)
	}
	// pick is the best time of c over its allowed counts in 1..max.
	pick := func(c cesm.Component, t []float64, max int) float64 {
		best := worst
		for n := 1; n <= max; n++ {
			if allowed(c, n) && better(t[n], best) {
				best = t[n]
			}
		}
		return best
	}

	best := worst
	switch s.Layout {
	case cesm.Layout1:
		for na := 1; na <= N; na++ {
			if !allowed(cesm.ATM, na) {
				continue
			}
			split := worst
			for ni := 1; ni < na; ni++ {
				for nl := 1; ni+nl <= na; nl++ {
					if maxMin && ni+nl != na {
						continue
					}
					if s.SyncTol > 0 && math.Abs(ti[ni]-tl[nl]) > s.SyncTol {
						continue
					}
					if v := par(ti[ni], tl[nl]); better(v, split) {
						split = v
					}
				}
			}
			for no := 1; na+no <= N; no++ {
				if maxMin && na+no != N || !allowed(cesm.OCN, no) {
					continue
				}
				if v := par(seq(split, ta[na]), to[no]); better(v, best) {
					best = v
				}
			}
		}
	case cesm.Layout2:
		for no := 1; no < N; no++ {
			if allowed(cesm.OCN, no) {
				rest := seq(seq(pick(cesm.ICE, ti, N-no), pick(cesm.LND, tl, N-no)), pick(cesm.ATM, ta, N-no))
				if v := par(rest, to[no]); better(v, best) {
					best = v
				}
			}
		}
	case cesm.Layout3:
		best = seq(seq(seq(pick(cesm.ICE, ti, N), pick(cesm.LND, tl, N)), pick(cesm.ATM, ta, N)), pick(cesm.OCN, to, N))
	}
	return best
}

// objectiveOf is the spec's objective at a decision's component times: the
// composed layout total for min-max, the sum for min-sum, the smallest
// time for max-min.
func objectiveOf(s Spec, d *Decision) float64 {
	c := d.PredictedComp
	switch s.Objective {
	case MinSum:
		return c[cesm.ICE] + c[cesm.LND] + c[cesm.ATM] + c[cesm.OCN]
	case MaxMin:
		return math.Min(math.Min(c[cesm.ICE], c[cesm.LND]), math.Min(c[cesm.ATM], c[cesm.OCN]))
	}
	return cesm.ComposeTotal(s.Layout, c)
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
// enumeration of Table I for every objective on every layout, with and
// without the sync tolerance, on fitted-truth and U-shaped curves,
// constrained and free.
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
						for _, obj := range []Objective{MinMax, MaxMin, MinSum} {
							s := truthSpec(sz.res, layout, sz.total)
							if shape == "u-shaped" {
								s = uShapedSpec(sz.res, layout, sz.total)
							}
							s.ConstrainOcean, s.ConstrainAtm, s.SyncTol, s.Objective = constrained, constrained, syncTol, obj
							name := fmt.Sprintf("%v/%d/%v/%s/constrained=%v/sync=%g/%v", sz.res, sz.total, layout, shape, constrained, syncTol, obj)
							t.Run(name, func(t *testing.T) { checkExact(t, s, nil) })
						}
					}
				}
			}
		}
	}
}

// checkExact holds the answer to s, from answer or else from
// ExhaustiveSearch, to bruteForce: the same objective value at 1e-12
// relative, an allocation the machine accepts, the sync tolerance met, and
// max-min's equality capacities used in full.
func checkExact(t *testing.T, s Spec, answer func(Spec) (*Decision, error)) {
	t.Helper()
	if answer == nil {
		answer = ExhaustiveSearch
	}
	want := bruteForce(s)
	got, err := answer(s)
	if math.IsInf(want, 0) {
		if err == nil {
			t.Fatalf("brute force finds nothing feasible, the search answered %v", got.Alloc)
		}
		return
	}
	if err != nil {
		t.Fatalf("brute force %.9f, the search: %v", want, err)
	}
	if rel := math.Abs(objectiveOf(s, got)-want) / math.Abs(want); rel > 1e-12 {
		t.Fatalf("%v %.12f (alloc %v, status %v), brute force %.12f", s.Objective, objectiveOf(s, got), got.Alloc, got.Status, want)
	}
	if err := cesm.ValidateConfig(cesm.Config{
		Resolution: s.Resolution, Layout: s.Layout, TotalNodes: s.TotalNodes, Alloc: got.Alloc,
	}); err != nil {
		t.Fatalf("allocation %v infeasible: %v", got.Alloc, err)
	}
	if s.SyncTol > 0 && s.Layout == cesm.Layout1 {
		if d := math.Abs(got.PredictedComp[cesm.ICE] - got.PredictedComp[cesm.LND]); d > s.SyncTol {
			t.Fatalf("ice/land times differ by %v, tolerance %v", d, s.SyncTol)
		}
	}
	if a := got.Alloc; s.Objective == MaxMin && s.Layout == cesm.Layout1 && (a.Atm+a.Ocn != s.TotalNodes || a.Ice+a.Lnd != a.Atm) {
		t.Fatalf("max-min allocation %v leaves layout-1 nodes idle", a)
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

// TestExhaustiveAnswersTableIII: no Table III size is refused under any
// objective, and none costs more than a blink.
func TestExhaustiveAnswersTableIII(t *testing.T) {
	sizes := []struct {
		res   cesm.Resolution
		total int
	}{{cesm.Res1Deg, 128}, {cesm.Res1Deg, 2048}, {cesm.Res8thDeg, 8192}, {cesm.Res8thDeg, 32768}}
	for _, sz := range sizes {
		for _, layout := range []cesm.Layout{cesm.Layout1, cesm.Layout2} {
			for _, constrained := range []bool{true, false} {
				for _, obj := range []Objective{MinMax, MaxMin, MinSum} {
					s := truthSpec(sz.res, layout, sz.total)
					s.ConstrainOcean, s.Objective = constrained, obj
					name := fmt.Sprintf("%v/%d/%v/constrained=%v/%v", sz.res, sz.total, layout, constrained, obj)
					start := time.Now()
					d, err := ExhaustiveSearch(s)
					took := time.Since(start)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					if err := cesm.ValidateConfig(cesm.Config{
						Resolution: s.Resolution, Layout: s.Layout, TotalNodes: s.TotalNodes, Alloc: d.Alloc,
					}); err != nil {
						t.Errorf("%s: %v", name, err)
					}
					if !raceEnabled && took > time.Second {
						t.Errorf("%s took %v", name, took)
					}
				}
			}
		}
	}
}
