package core

import (
	"math"
	"testing"
	"time"

	"hslb/internal/bench"
	"hslb/internal/cesm"
	"hslb/internal/perf"
)

// TestChaosPipelineAcceptance is the issue's acceptance scenario: with a
// 20% injected run-failure rate (crash+hang+corrupt) plus heavy-tailed
// outlier injection, the full pipeline must still complete, land within 5%
// of the fault-free executed total at 1°/N=128, and the failure report
// must account for every injected fault.
func TestChaosPipelineAcceptance(t *testing.T) {
	counts := perf.SamplingPlan(64, 2048, 6)
	spec := Spec{
		Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: 128,
		ConstrainOcean: true, ConstrainAtm: true,
	}
	base := PipelineOptions{
		Campaign: bench.Campaign{
			Resolution: cesm.Res1Deg,
			Layout:     cesm.Layout1,
			NodeCounts: counts,
			Repeats:    2,
			Seed:       5,
		},
		Spec:        spec,
		ExecuteSeed: 99,
	}

	cleanRes, err := RunPipeline(base)
	if err != nil {
		t.Fatal(err)
	}

	// crash 12% + hang 4% + corrupt 4% = 20% run-failure rate, plus 8%
	// heavy-tailed outliers (5x and up).
	plan := &cesm.FaultPlan{
		Seed: 2, CrashProb: 0.12, HangProb: 0.04, CorruptProb: 0.04,
		OutlierProb: 0.08, OutlierScale: 5,
	}
	// The timeout only has to distinguish injected hangs (which block until
	// the deadline) from legitimate runs (sub-millisecond); under the race
	// detector a legitimate run on a loaded single-CPU machine can exceed
	// 50ms, so the budget scales up to keep the fault ledger deterministic.
	runTimeout := 50 * time.Millisecond
	solveTimeout := 30 * time.Second
	if raceEnabled {
		runTimeout = 2 * time.Second
		// The solve budget needs the same treatment: under the race detector
		// the MINLP solve runs right at the 30s edge, and crossing it swaps
		// the optimum for a deadline incumbent — a different allocation.
		solveTimeout = 10 * time.Minute
	}
	chaotic := base
	chaotic.Campaign.Faults = plan
	chaotic.Campaign.Retry = bench.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  10 * time.Microsecond,
		RunTimeout:  runTimeout,
	}
	chaotic.Campaign.OutlierK = 4
	chaotic.SolveTimeout = solveTimeout

	res, err := RunPipeline(chaotic)
	if err != nil {
		t.Fatalf("chaotic pipeline aborted: %v", err)
	}
	if res.Quality == nil || res.Quality.Gather == nil {
		t.Fatal("pipeline lost the gather failure report")
	}
	if res.Quality.SolveDeadline {
		t.Fatalf("chaotic solve hit its %v deadline; the allocation %v is an incumbent, not the optimum",
			solveTimeout, res.Decision.Alloc)
	}
	rep := res.Quality.Gather

	// Executed total within 5% of the fault-free pipeline.
	cleanTotal := cleanRes.Execution.Total
	chaosTotal := res.Execution.Total
	if math.Abs(chaosTotal-cleanTotal)/cleanTotal > 0.05 {
		t.Fatalf("chaotic executed total %v departs >5%% from fault-free %v (alloc %v vs %v)",
			chaosTotal, cleanTotal, res.Decision.Alloc, cleanRes.Decision.Alloc)
	}

	// Re-derive the full injected-fault ledger from the deterministic
	// plan: for each (total, rep), attempts abort while the roll is
	// crash/hang/corrupt and stop at the first none/outlier roll.
	type key struct {
		total, rep, attempt int
		kind                string
	}
	expected := map[key]bool{}
	type injectedOutlier struct {
		total int
		comp  cesm.Component
	}
	var outliers []injectedOutlier
	for _, total := range base.Campaign.NodeCounts {
		for r := 0; r < base.Campaign.Repeats; r++ {
			for attempt := 0; attempt < chaotic.Campaign.Retry.MaxAttempts; attempt++ {
				f := plan.Roll(bench.AttemptSeed(base.Campaign.Seed, r, attempt), total)
				if f.Kind == cesm.FaultNone {
					break
				}
				if f.Kind == cesm.FaultOutlier {
					outliers = append(outliers, injectedOutlier{total, f.Component})
					break
				}
				expected[key{total, r, attempt, f.Kind.String()}] = true
			}
		}
	}
	if len(expected) == 0 || len(outliers) == 0 {
		t.Fatal("seed scan regression: plan injects no faults/outliers for these seeds")
	}
	if len(rep.Faults) != len(expected) {
		t.Fatalf("report has %d fault events, plan injected %d: %+v", len(rep.Faults), len(expected), rep.Faults)
	}
	for _, ev := range rep.Faults {
		k := key{ev.TotalNodes, ev.Rep, ev.Attempt, ev.Kind}
		if !expected[k] {
			t.Errorf("reported fault %+v not predicted by the plan", ev)
		}
		delete(expected, k)
	}
	for k := range expected {
		t.Errorf("injected fault %+v missing from the report", k)
	}
	if len(rep.Dropped) != 0 {
		t.Errorf("unexpected dropped runs: %+v", rep.Dropped)
	}

	// Every injected outlier sample must have been caught by the MAD
	// rejection and show up in the report.
	for _, o := range outliers {
		alloc := bench.DefaultAllocation(cesm.Res1Deg, cesm.Layout1, o.total)
		nodes := alloc.Get(o.comp)
		found := false
		for _, rj := range rep.Rejected {
			if rj.Component == o.comp.String() && rj.Nodes == nodes {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("injected outlier (%v at %d total nodes, %d comp nodes) not in rejected list: %+v",
				o.comp, o.total, nodes, rep.Rejected)
		}
	}

	// The quality report should reflect what happened.
	if !res.Quality.Degraded() {
		t.Error("quality report claims a clean run under a 20% fault plan")
	}
	if res.Quality.SolvePath == "" {
		t.Error("quality report lost the solve path")
	}
}

// TestPipelineSolveDeadlineLadder: an absurdly small solve timeout must not
// kill the pipeline at any Table III scale — the decision degrades to a
// deadline incumbent or to the exact search, and the quality report says so.
func TestPipelineSolveDeadlineLadder(t *testing.T) {
	for _, tc := range []struct {
		name        string
		res         cesm.Resolution
		plan        []int
		total       int
		constrained bool
	}{
		{"1deg/128", cesm.Res1Deg, perf.SamplingPlan(64, 1024, 5), 128, true},
		{"8th/32768", cesm.Res8thDeg, perf.SamplingPlan(1024, 32768, 5), 32768, true},
		{"8th/32768-uncon", cesm.Res8thDeg, perf.SamplingPlan(1024, 32768, 5), 32768, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			camp := bench.Campaign{
				Resolution: tc.res, Layout: cesm.Layout1, NodeCounts: tc.plan, Seed: 2,
			}
			data, err := camp.Run()
			if err != nil {
				t.Fatal(err)
			}
			po := PipelineOptions{
				Data: data,
				Spec: Spec{
					Resolution: tc.res, Layout: cesm.Layout1, TotalNodes: tc.total,
					ConstrainOcean: tc.constrained, ConstrainAtm: true,
				},
				SolveTimeout: time.Nanosecond,
			}
			res, err := RunPipeline(po)
			if err != nil {
				t.Fatalf("pipeline died on a tiny solve timeout: %v", err)
			}
			q := res.Quality
			switch {
			case q.SolvePath == "exhaustive":
				spec := po.Spec
				spec.Perf = bench.Models(res.Fits)
				want, err := ExhaustiveSearch(spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.Decision.PredictedTime != want.PredictedTime {
					t.Fatalf("ladder answered %v, exhaustive search %v", res.Decision.PredictedTime, want.PredictedTime)
				}
			case !q.SolveDeadline:
				t.Fatalf("no degradation recorded: path=%q deadline=%v notes=%v", q.SolvePath, q.SolveDeadline, q.Notes)
			}
			if res.Decision == nil || res.Execution == nil {
				t.Fatal("degraded pipeline lost its artifacts")
			}
			if err := cesm.ValidateConfig(cesm.Config{
				Resolution: tc.res, Layout: cesm.Layout1, TotalNodes: tc.total,
				Alloc: res.Decision.Alloc,
			}); err != nil {
				t.Fatalf("degraded decision infeasible: %v", err)
			}
		})
	}
}

// TestExhaustiveMatchesSolver: the exact search must agree with the
// branch-and-bound solver, within the relative gap the solver certifies, on
// the pipeline's instance and on one instance of each §IV-C sweep that now
// runs on the exact search — and, being exact, never lose to the solver's
// allocation.
func TestExhaustiveMatchesSolver(t *testing.T) {
	oneDeg512 := truthSpec(cesm.Res1Deg, cesm.Layout1, 512)
	replaced := truthSpec(cesm.Res1Deg, cesm.Layout1, 512)
	replaced.Perf = map[cesm.Component]perf.Model{}
	for c, m := range oneDeg512.Perf {
		replaced.Perf[c] = m
	}
	replaced.Perf[cesm.OCN] = ScaledModel(oneDeg512.Perf[cesm.OCN], 2)
	for _, tc := range []struct {
		name string
		s    Spec
	}{
		{"1deg/128", truthSpec(cesm.Res1Deg, cesm.Layout1, 128)},
		{"advise/1deg/256", truthSpec(cesm.Res1Deg, cesm.Layout1, 256)},
		{"ocean-constraint/8th/8192", truthSpec(cesm.Res8thDeg, cesm.Layout1, 8192)},
		{"replacement/1deg/512", replaced},
		{"port/1deg/512", PortSpec(oneDeg512, Hardware{ParallelSpeedup: 4, SerialSpeedup: 1, CommSpeedup: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := SolveAllocation(tc.s, SolverOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := ExhaustiveSearch(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.PredictedTime-want.PredictedTime) > SolverOptions().RelGap*want.PredictedTime {
				t.Fatalf("exhaustive %v (alloc %v) vs solver %v (alloc %v)",
					got.PredictedTime, got.Alloc, want.PredictedTime, want.Alloc)
			}
			if got.PredictedTime > want.PredictedTime*(1+1e-12) {
				t.Fatalf("exact search %v (alloc %v) beaten by the solver's %v (alloc %v)",
					got.PredictedTime, got.Alloc, want.PredictedTime, want.Alloc)
			}
		})
	}
}

// TestFitGateRefits: poisoning one component's samples below the R² gate
// must trigger the Amdahl refit and be recorded.
func TestFitGateRefits(t *testing.T) {
	camp := bench.Campaign{
		Resolution: cesm.Res1Deg, Layout: cesm.Layout1,
		NodeCounts: perf.SamplingPlan(64, 1024, 6), Repeats: 2, Seed: 3,
	}
	data, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Scramble the land samples into pure noise so no family fits well,
	// but Amdahl (2 params) can still edge out the 4-parameter paper fit.
	for i := range data.Samples[cesm.LND] {
		data.Samples[cesm.LND][i].Time = 5 + float64(i%5)
	}
	po := PipelineOptions{
		Data: data,
		Spec: Spec{
			Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: 128,
			ConstrainOcean: true, ConstrainAtm: true,
		},
		FitR2Gate: 0.95,
	}
	res, err := RunPipeline(po)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quality.Notes) == 0 {
		t.Fatal("fit gate fired no notes on garbage land samples")
	}
	if res.Quality.FitR2[cesm.LND] >= 0.95 && res.Quality.Refits[cesm.LND] == "" {
		t.Fatalf("land fit reported R²=%v with no gate action", res.Quality.FitR2[cesm.LND])
	}
}
