package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"hslb/internal/bench"
	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/minlp"
)

// table3Instances is the set-up of one round of table3-pipeline: pose every
// decision of the round — the constrained 1° one, then each pass over the
// 1/8° rungs from a fit seed of its own — and compute its reference. The
// pipeline gathers and fits again inside the timed section — that is its
// steps 1 and 2 — so the fits made here serve only the references.
func table3Instances(tr *tracer, d *draw, seconds, round int) ([]*instance, error) {
	passes := table3Passes(seconds)
	first := round * passes
	out, err := d.ladder(tr, []rung{rung1deg}, first)
	if err != nil {
		return nil, err
	}
	for p := 0; p < passes; p++ {
		l, err := d.ladder(tr, table3Rungs8th, first+p)
		if err != nil {
			return nil, err
		}
		out = append(out, l...)
	}
	return out, nil
}

func pipelineOptions(in *instance) core.PipelineOptions {
	spec := in.spec
	spec.Perf = nil // the pipeline fits its own
	return core.PipelineOptions{
		Campaign:    campaign(in.rung.res, in.fitSeed),
		Spec:        spec,
		Fit:         fitOptions,
		ExecuteSeed: in.fitSeed,
	}
}

// decide runs the four-step pipeline for one instance the way a user does,
// through core.RunPipeline, and returns the decision and the executed total.
func decide(ctx context.Context, in *instance) (answer, float64) {
	t0 := time.Now()
	res, err := core.RunPipelineContext(ctx, pipelineOptions(in))
	a := answer{latencyMS: time.Since(t0).Seconds() * 1e3}
	switch {
	case err != nil:
		a.err = err.Error()
	case res.Decision.Status != minlp.Optimal || res.Quality.Degraded():
		a.err = fmt.Sprintf("pipeline degraded: status %v, notes %v", res.Decision.Status, res.Quality.Notes)
	default:
		a.reported, a.alloc, a.nodes = res.Decision.PredictedTime, res.Decision.Alloc, res.Decision.Nodes
		return a, res.Execution.Total
	}
	return a, 0
}

// solveCounts are the minlp.Result fields a solve span carries.
func solveCounts(res *minlp.Result) map[string]float64 {
	return map[string]float64{
		"nodes":        float64(res.Nodes),
		"nlp_solves":   float64(res.NLPSolves),
		"cuts":         float64(res.Cuts),
		"lp_warm_hits": float64(res.LPWarm.WarmResolves),
	}
}

// decideTraced makes the same decision by calling the five layers
// RunPipeline calls inside, one span each, so the traced run can say where
// the time went. It follows the happy path only: a stage that fails fails
// the operation, where RunPipeline would walk its degradation ladder.
func decideTraced(tr *tracer, opID int, in *instance) (answer, float64) {
	t0 := time.Now()
	root := tr.start("pipeline.decision", in.rung.name, opID, 0)
	a, executed, err := stagedDecision(tr, opID, root, in)
	tr.end(root, nil)
	a.latencyMS = time.Since(t0).Seconds() * 1e3
	if err != nil {
		a.err = err.Error()
	}
	return a, executed
}

func stagedDecision(tr *tracer, opID, root int, in *instance) (answer, float64, error) {
	po := pipelineOptions(in)

	s := tr.start("bench.gather", in.rung.name, opID, root)
	data, err := po.Campaign.Run()
	tr.end(s, nil)
	if err != nil {
		return answer{}, 0, err
	}

	s = tr.start("perf.fit", in.rung.name, opID, root)
	fits, err := data.FitAll(po.Fit)
	tr.end(s, nil)
	if err != nil {
		return answer{}, 0, err
	}
	spec := po.Spec
	spec.Perf = bench.Models(fits)

	s = tr.start("core.build", in.rung.name, opID, root)
	m, vars, err := core.BuildModel(spec)
	tr.end(s, nil)
	if err != nil {
		return answer{}, 0, err
	}

	s = tr.start("minlp.solve", in.rung.name, opID, root)
	res, err := minlp.Solve(m, core.SolverOptions())
	if err != nil {
		tr.end(s, nil)
		return answer{}, 0, err
	}
	tr.end(s, solveCounts(res))
	if res.Status != minlp.Optimal {
		return answer{}, 0, fmt.Errorf("solve ended with status %v", res.Status)
	}
	var a answer
	for _, c := range cesm.OptimizedComponents {
		a.alloc.Set(c, int(math.Round(res.X[vars.N[c]])))
	}
	a.reported, a.nodes = res.Obj, res.Nodes

	s = tr.start("cesm.execute", in.rung.name, opID, root)
	timing, err := cesm.Run(cesm.Config{
		Resolution: spec.Resolution, Layout: spec.Layout, TotalNodes: spec.TotalNodes,
		Alloc: a.alloc, Seed: po.ExecuteSeed,
	})
	tr.end(s, nil)
	if err != nil {
		return a, 0, err
	}
	return a, timing.Total, nil
}

// runTable3 is the timed section of table3-pipeline: every decision in
// order, in this goroutine.
func runTable3(ctx context.Context, tr *tracer, insts []*instance) (answers []answer, executed []float64, wall time.Duration) {
	answers = make([]answer, len(insts))
	executed = make([]float64, len(insts))
	t0 := time.Now()
	for i, in := range insts {
		if ctx.Err() != nil {
			answers[i].err = "not started before the run's time limit"
			continue
		}
		if tr != nil {
			answers[i], executed[i] = decideTraced(tr, i+1, in)
		} else {
			answers[i], executed[i] = decide(ctx, in)
		}
	}
	return answers, executed, time.Since(t0)
}
