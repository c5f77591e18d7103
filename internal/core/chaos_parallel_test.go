package core

import (
	"reflect"
	"testing"
	"time"

	"hslb/internal/bench"
	"hslb/internal/cesm"
	"hslb/internal/perf"
)

// TestChaosPipelineWorkersInvariant is the end-to-end determinism gate for
// the parallel gather: the full chaotic pipeline — faulty gather with
// retries and outlier rejection, fit, OA solve, execute — must produce
// byte-identical benchmark data, failure report, and allocation whether the
// gather runs sequentially or on a worker pool.
func TestChaosPipelineWorkersInvariant(t *testing.T) {
	// Same budget scaling as TestChaosPipelineAcceptance: a legitimate run
	// must never time out (or seq and par gathers diverge), and the solve
	// must reach the optimum rather than a wall-clock-dependent incumbent.
	runTimeout := 50 * time.Millisecond
	solveTimeout := 30 * time.Second
	if raceEnabled {
		runTimeout = 2 * time.Second
		solveTimeout = 10 * time.Minute
	}
	mk := func(workers int) PipelineOptions {
		po := PipelineOptions{
			Campaign: bench.Campaign{
				Resolution: cesm.Res1Deg,
				Layout:     cesm.Layout1,
				NodeCounts: perf.SamplingPlan(64, 2048, 6),
				Repeats:    2,
				Seed:       5,
				Workers:    workers,
				Faults: &cesm.FaultPlan{
					Seed: 2, CrashProb: 0.12, HangProb: 0.04, CorruptProb: 0.04,
					OutlierProb: 0.08, OutlierScale: 5,
				},
				Retry: bench.RetryPolicy{
					MaxAttempts: 3,
					BaseBackoff: time.Microsecond,
					MaxBackoff:  10 * time.Microsecond,
					RunTimeout:  runTimeout,
				},
				OutlierK: 4,
			},
			Spec: Spec{
				Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: 128,
				ConstrainOcean: true, ConstrainAtm: true,
			},
			ExecuteSeed:  99,
			SolveTimeout: solveTimeout,
		}
		po.Solver = SolverOptions()
		return po
	}

	seq, err := RunPipeline(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPipeline(mk(8))
	if err != nil {
		t.Fatal(err)
	}

	if seq.Quality != nil && seq.Quality.SolveDeadline {
		t.Fatalf("sequential solve hit its %v deadline; allocation is an incumbent", solveTimeout)
	}
	if par.Quality != nil && par.Quality.SolveDeadline {
		t.Fatalf("parallel-gather run's solve hit its %v deadline; allocation is an incumbent", solveTimeout)
	}
	if !reflect.DeepEqual(seq.Data, par.Data) {
		t.Error("parallel gather changed the benchmark data")
	}
	if !reflect.DeepEqual(seq.Quality.Gather, par.Quality.Gather) {
		t.Errorf("failure reports diverge:\nseq: %+v\npar: %+v", seq.Quality.Gather, par.Quality.Gather)
	}
	if seq.Decision.Alloc != par.Decision.Alloc {
		t.Errorf("allocation depends on worker count: %v vs %v", seq.Decision.Alloc, par.Decision.Alloc)
	}
	if seq.Decision.Status != par.Decision.Status ||
		seq.Decision.Nodes != par.Decision.Nodes ||
		seq.Decision.NLPSolves != par.Decision.NLPSolves {
		t.Errorf("solver trace diverges: (%v, %d nodes, %d solves) vs (%v, %d nodes, %d solves)",
			seq.Decision.Status, seq.Decision.Nodes, seq.Decision.NLPSolves,
			par.Decision.Status, par.Decision.Nodes, par.Decision.NLPSolves)
	}
	if seq.Execution.Total != par.Execution.Total {
		t.Errorf("executed totals diverge: %v vs %v", seq.Execution.Total, par.Execution.Total)
	}
}
