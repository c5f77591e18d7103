package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hslb/internal/bench"
	"hslb/internal/cesm"
	"hslb/internal/perf"
)

// truthSpec builds a spec whose performance models are the simulator's own
// ground truth (perfect fits), isolating the solve step.
func truthSpec(res cesm.Resolution, layout cesm.Layout, total int) Spec {
	perfs := map[cesm.Component]perf.Model{}
	for _, c := range cesm.OptimizedComponents {
		perfs[c] = cesm.TruthModel(res, c)
	}
	return Spec{
		Resolution:     res,
		Layout:         layout,
		TotalNodes:     total,
		Perf:           perfs,
		ConstrainOcean: true,
		ConstrainAtm:   true,
	}
}

func TestBuildModelLayout1Valid(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	m, vars, err := BuildModel(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if vars.T < 0 || vars.Ticelnd < 0 {
		t.Fatalf("missing T/Ticelnd vars: %+v", vars)
	}
	if len(m.SOS) != 2 {
		t.Fatalf("expected 2 SOS sets (ocn, atm), got %d", len(m.SOS))
	}
	// The paper's manual allocation must be feasible in the model.
	x := make([]float64, m.NumVars())
	alloc := cesm.Allocation{Atm: 104, Ocn: 24, Ice: 80, Lnd: 24}
	for _, c := range cesm.OptimizedComponents {
		x[vars.N[c]] = float64(alloc.Get(c))
	}
	ti := s.Perf[cesm.ICE].Eval(80)
	tl := s.Perf[cesm.LND].Eval(24)
	ta := s.Perf[cesm.ATM].Eval(104)
	to := s.Perf[cesm.OCN].Eval(24)
	x[vars.Ticelnd] = math.Max(ti, tl)
	x[vars.T] = math.Max(x[vars.Ticelnd]+ta, to)
	// Activate the right SOS selectors.
	for _, sos := range m.SOS {
		target := x[sos.Target]
		for k, w := range sos.Weights {
			if w == target {
				x[sos.Selectors[k]] = 1
			}
		}
	}
	if !m.IsFeasible(x, 1e-6) {
		t.Fatalf("paper's manual allocation infeasible in model (feasErr %g)", m.FeasibilityError(x))
	}
}

func TestBuildModelRejectsBadSpec(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	s.TotalNodes = 2
	if _, _, err := BuildModel(s); err == nil {
		t.Error("tiny machine accepted")
	}
	s2 := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	delete(s2.Perf, cesm.OCN)
	if _, _, err := BuildModel(s2); err == nil {
		t.Error("missing perf model accepted")
	}
	s3 := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	mdl := s3.Perf[cesm.ATM]
	mdl.A = -5
	s3.Perf[cesm.ATM] = mdl
	if _, _, err := BuildModel(s3); err == nil {
		t.Error("negative coefficient accepted")
	}
}

// bruteLayout1 exhaustively searches layout-1 allocations with the given
// discrete sets, using the same inner logic as the MINLP: for a fixed
// (atm, ocn), the best ice/land split uses all atm nodes.
func bruteLayout1(s Spec) (float64, cesm.Allocation) {
	ocnSet := cesm.OceanSet(s.Resolution)
	atmSet := cesm.AtmSet(s.Resolution, s.TotalNodes)
	best := math.Inf(1)
	var bestAlloc cesm.Allocation
	ti := s.Perf[cesm.ICE]
	tl := s.Perf[cesm.LND]
	ta := s.Perf[cesm.ATM]
	to := s.Perf[cesm.OCN]
	for _, no := range ocnSet {
		if no > s.TotalNodes-2 {
			continue
		}
		toV := to.Eval(float64(no))
		for _, na := range atmSet {
			if na+no > s.TotalNodes || na < 2 {
				continue
			}
			taV := ta.Eval(float64(na))
			for nl := 1; nl < na; nl++ {
				ni := na - nl
				icelnd := math.Max(ti.Eval(float64(ni)), tl.Eval(float64(nl)))
				total := math.Max(icelnd+taV, toV)
				if total < best {
					best = total
					bestAlloc = cesm.Allocation{Atm: na, Ocn: no, Ice: ni, Lnd: nl}
				}
			}
		}
	}
	return best, bestAlloc
}

func TestSolveAllocationMatchesBruteForce128(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	want, wantAlloc := bruteLayout1(s)
	d, err := SolveAllocation(s, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.PredictedTime-want) > 0.01*want {
		t.Fatalf("predicted %v (alloc %v), brute force %v (alloc %v)",
			d.PredictedTime, d.Alloc, want, wantAlloc)
	}
	// Solution must be executable.
	if err := cesm.ValidateConfig(cesm.Config{
		Resolution: s.Resolution, Layout: s.Layout, TotalNodes: s.TotalNodes, Alloc: d.Alloc,
	}); err != nil {
		t.Fatalf("HSLB allocation invalid: %v", err)
	}
}

func TestSolveAllocation128CloseToPaper(t *testing.T) {
	// Paper Table III: HSLB predicted 410.6 s at 1°/128 (manual 416.0).
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	d, err := SolveAllocation(s, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.PredictedTime < 350 || d.PredictedTime > 430 {
		t.Fatalf("predicted %v s, paper ballpark ≈ 410 s", d.PredictedTime)
	}
	// HSLB must be at least as good as the paper's manual allocation under
	// the same models.
	manualTotal, _ := PredictTotal(s, cesm.Allocation{Atm: 104, Ocn: 24, Ice: 80, Lnd: 24})
	if d.PredictedTime > manualTotal+1e-6 {
		t.Fatalf("HSLB %v worse than manual %v", d.PredictedTime, manualTotal)
	}
}

func TestSolveUnconstrainedOceanBetterOrEqual(t *testing.T) {
	// §IV-B: lifting the ocean constraint can only improve the optimum
	// (same objective, strictly larger feasible set at 1/8°).
	sCon := truthSpec(cesm.Res8thDeg, cesm.Layout1, 8192)
	dCon, err := SolveAllocation(sCon, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	sUn := sCon
	sUn.ConstrainOcean = false
	dUn, err := SolveAllocation(sUn, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	if dUn.PredictedTime > dCon.PredictedTime*1.001 {
		t.Fatalf("unconstrained %v worse than constrained %v", dUn.PredictedTime, dCon.PredictedTime)
	}
}

func TestSolve8th32768UnconstrainedBigGain(t *testing.T) {
	// The headline result: at 32768 nodes, unconstrained ocean cuts the
	// predicted time by roughly 30-45% (paper: 1129 vs 1593 s ≈ 40%
	// predicted reduction; 25% actual).
	sCon := truthSpec(cesm.Res8thDeg, cesm.Layout1, 32768)
	dCon, err := SolveAllocation(sCon, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	sUn := sCon
	sUn.ConstrainOcean = false
	dUn, err := SolveAllocation(sUn, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	gain := 1 - dUn.PredictedTime/dCon.PredictedTime
	if gain < 0.15 {
		t.Fatalf("unconstrained gain only %.0f%% (con %v s, uncon %v s); paper ≈ 25-40%%",
			gain*100, dCon.PredictedTime, dUn.PredictedTime)
	}
	t.Logf("constrained %v s, unconstrained %v s, gain %.0f%%", dCon.PredictedTime, dUn.PredictedTime, gain*100)
}

func TestObjectiveVariants(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)

	s.Objective = MinSum
	dSum, err := SolveAllocation(s, SolverOptions())
	if err != nil {
		t.Fatalf("min-sum: %v", err)
	}
	s.Objective = MinMax
	dMax, err := SolveAllocation(s, SolverOptions())
	if err != nil {
		t.Fatalf("min-max: %v", err)
	}
	// §III-D: min-max should be no worse than min-sum at the true goal
	// (total composed time).
	if dMax.PredictedTime > dSum.PredictedTime+1e-6 {
		t.Fatalf("min-max %v worse than min-sum %v at composed total",
			dMax.PredictedTime, dSum.PredictedTime)
	}
}

func TestSyncTolConstraintBindsOrNot(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	dFree, err := SolveAllocation(s, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	s.SyncTol = 1.0 // very tight: lnd and ice times within 1 s
	dSync, err := SolveAllocation(s, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	// An extra constraint can only hurt (paper §III-A: Tsync "may actually
	// result in reduced performance").
	if dSync.PredictedTime < dFree.PredictedTime-0.5 {
		t.Fatalf("sync-constrained %v beats unconstrained %v", dSync.PredictedTime, dFree.PredictedTime)
	}
	diff := math.Abs(dSync.PredictedComp[cesm.LND] - dSync.PredictedComp[cesm.ICE])
	if diff > 1.0+0.2 {
		t.Fatalf("sync tolerance violated: |Tlnd-Tice| = %v", diff)
	}
}

func TestLayout2And3Solve(t *testing.T) {
	for _, layout := range []cesm.Layout{cesm.Layout2, cesm.Layout3} {
		s := truthSpec(cesm.Res1Deg, layout, 128)
		d, err := SolveAllocation(s, SolverOptions())
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		if err := cesm.ValidateConfig(cesm.Config{
			Resolution: s.Resolution, Layout: layout, TotalNodes: 128, Alloc: d.Alloc,
		}); err != nil {
			t.Fatalf("%v: invalid alloc %v: %v", layout, d.Alloc, err)
		}
		if d.PredictedTime <= 0 {
			t.Fatalf("%v: nonpositive total", layout)
		}
	}
}

func TestLayoutOrderingPredicted(t *testing.T) {
	// Figure 4: layout 3 is the worst; layouts 1 and 2 are similar.
	totals := map[cesm.Layout]float64{}
	for _, layout := range []cesm.Layout{cesm.Layout1, cesm.Layout2, cesm.Layout3} {
		s := truthSpec(cesm.Res1Deg, layout, 512)
		d, err := SolveAllocation(s, SolverOptions())
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		totals[layout] = d.PredictedTime
	}
	if totals[cesm.Layout3] <= totals[cesm.Layout1] || totals[cesm.Layout3] <= totals[cesm.Layout2] {
		t.Fatalf("layout3 should be worst: %v", totals)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	po := PipelineOptions{
		Campaign: bench.Campaign{
			Resolution: cesm.Res1Deg,
			Layout:     cesm.Layout1,
			NodeCounts: perf.SamplingPlan(64, 2048, 5),
			Seed:       11,
		},
		Spec: Spec{
			Resolution:     cesm.Res1Deg,
			Layout:         cesm.Layout1,
			TotalNodes:     128,
			ConstrainOcean: true,
			ConstrainAtm:   true,
		},
		ExecuteSeed: 99,
	}
	res, err := RunPipeline(po)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data == nil || res.Fits == nil || res.Decision == nil || res.Execution == nil {
		t.Fatal("pipeline left artifacts nil")
	}
	// Predicted vs actual should be close — the paper's key validation
	// ("predicted and actual total times are very close").
	pred := res.Decision.PredictedTime
	actual := res.Execution.Total
	if math.Abs(pred-actual)/actual > 0.10 {
		t.Fatalf("prediction %v vs actual %v differ by >10%%", pred, actual)
	}
	// HSLB actual should be within a few percent of the paper's manual
	// baseline (or better).
	manual, err := cesm.Run(cesm.Config{
		Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: 128,
		Alloc: cesm.Allocation{Atm: 104, Ocn: 24, Ice: 80, Lnd: 24}, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if actual > manual.Total*1.05 {
		t.Fatalf("HSLB actual %v much worse than manual %v", actual, manual.Total)
	}
}

// TestPipelineRoutesNonconvexSpecs: max-min and layout-1 sync-tolerance
// specs skip outer approximation for the exact search, and the quality
// report says so.
func TestPipelineRoutesNonconvexSpecs(t *testing.T) {
	data, err := bench.Campaign{
		Resolution: cesm.Res1Deg, Layout: cesm.Layout1,
		NodeCounts: perf.SamplingPlan(64, 1024, 5), Seed: 2,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{
		{Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: 128, ConstrainOcean: true, ConstrainAtm: true, SyncTol: 2},
		{Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: 128, ConstrainOcean: true, ConstrainAtm: true, Objective: MaxMin},
	} {
		res, err := RunPipeline(PipelineOptions{Data: data, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		spec.Perf = bench.Models(res.Fits)
		want, err := ExhaustiveSearch(spec)
		if err != nil {
			t.Fatal(err)
		}
		if q := res.Quality; q.SolvePath != "exhaustive" || res.Decision.Alloc != want.Alloc {
			t.Fatalf("%v sync=%g: path %q, alloc %v; want exhaustive, %v", spec.Objective, spec.SyncTol, q.SolvePath, res.Decision.Alloc, want.Alloc)
		}
		for _, n := range res.Quality.Notes {
			if strings.HasPrefix(n, "solve:") {
				t.Fatalf("%v sync=%g: note %q", spec.Objective, spec.SyncTol, n)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := SolveAllocationContext(ctx, spec, SolverOptions()); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v sync=%g: a cancelled routed solve returned %v", spec.Objective, spec.SyncTol, err)
		}
	}
}

func TestPipelineReusesData(t *testing.T) {
	camp := bench.Campaign{
		Resolution: cesm.Res1Deg, Layout: cesm.Layout1,
		NodeCounts: perf.SamplingPlan(64, 1024, 5), Seed: 2,
	}
	data, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	po := PipelineOptions{
		Data: data,
		Spec: Spec{
			Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: 128,
			ConstrainOcean: true, ConstrainAtm: true,
		},
	}
	res, err := RunPipeline(po)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != data {
		t.Fatal("pipeline did not reuse provided data")
	}
}

func TestTuneToSweetSpots(t *testing.T) {
	s := truthSpec(cesm.Res8thDeg, cesm.Layout1, 32768)
	raw := cesm.Allocation{Atm: 22957, Ocn: 9813, Ice: 22657, Lnd: 299}
	tuned := TuneToSweetSpots(s, raw)
	if tuned.Atm%4 != 0 || tuned.Ocn%4 != 0 {
		t.Fatalf("not snapped to multiples of 4: %v", tuned)
	}
	if err := cesm.ValidateConfig(cesm.Config{
		Resolution: s.Resolution, Layout: s.Layout, TotalNodes: 32768, Alloc: tuned,
	}); err != nil {
		t.Fatalf("tuned alloc invalid: %v (%v)", err, tuned)
	}
}

func TestSolverDiagnosticsPopulated(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 128)
	d, err := SolveAllocation(s, SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.Nodes <= 0 || d.NLPSolves <= 0 {
		t.Fatalf("diagnostics empty: %+v", d)
	}
}

func TestMaxMinObjectiveRuns(t *testing.T) {
	s := truthSpec(cesm.Res1Deg, cesm.Layout1, 64)
	s.ConstrainAtm = false
	s.ConstrainOcean = false
	s.Objective = MaxMin
	checkExact(t, s, func(s Spec) (*Decision, error) { return SolveAllocation(s, SolverOptions()) })
}

func TestTuneToSweetSpotsPropertyValid(t *testing.T) {
	// Any layout-1-valid allocation stays valid after sweet-spot tuning.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		res := cesm.Res1Deg
		total := 64 + rng.Intn(2000)
		if rng.Intn(2) == 1 {
			res = cesm.Res8thDeg
			total = 2048 + rng.Intn(30000)
		}
		s := truthSpec(res, cesm.Layout1, total)
		ocn := 2 + rng.Intn(total/3)
		atm := total - ocn
		if atm > cesm.AtmMaxNodes(res) {
			atm = cesm.AtmMaxNodes(res)
		}
		ice := 1 + rng.Intn(atm-1)
		lnd := atm - ice
		if lnd < 1 {
			lnd = 1
			ice = atm - 1
		}
		raw := cesm.Allocation{Atm: atm, Ocn: ocn, Ice: ice, Lnd: lnd}
		if cesm.ValidateConfig(cesm.Config{
			Resolution: res, Layout: cesm.Layout1, TotalNodes: total, Alloc: raw,
		}) != nil {
			return true // invalid draw; nothing to tune
		}
		tuned := TuneToSweetSpots(s, raw)
		return cesm.ValidateConfig(cesm.Config{
			Resolution: res, Layout: cesm.Layout1, TotalNodes: total, Alloc: tuned,
		}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
