package core

import (
	"context"
	"fmt"
	"time"

	"hslb/internal/bench"
	"hslb/internal/cesm"
	"hslb/internal/minlp"
	"hslb/internal/perf"
)

// PipelineOptions configures a full HSLB run (§III-F).
type PipelineOptions struct {
	// Campaign is the step-1 benchmark plan. Its Resolution/Layout must
	// match the Spec.
	Campaign bench.Campaign
	// Spec describes the allocation problem; Spec.Perf is filled in by the
	// pipeline from the fits.
	Spec Spec
	// Fit configures step 2.
	Fit perf.FitOptions
	// Solver configures step 3; zero value uses SolverOptions().
	Solver minlp.Options
	// ExecuteSeed seeds the final validation run (step 4).
	ExecuteSeed int64
	// Data, if non-nil, skips step 1 and reuses existing benchmark data —
	// the paper notes gathering "can be avoided altogether if reliable
	// benchmarks are already available".
	Data *bench.Data
	// SolveTimeout bounds OA's step-3 solve; 0 means no deadline. The
	// exact search (fallback and nonconvex specs) runs without one.
	SolveTimeout time.Duration
	// FitR2Gate, if > 0, is the fit-quality gate: any component whose
	// Table II fit has R² below the gate is refitted with the simpler
	// Amdahl family (a/n + d), and the better of the two fits is used. The
	// substitution is recorded in Quality.Refits.
	FitR2Gate float64
}

// Quality reports how much the pipeline had to degrade to produce its
// result: gather failures, fit-gate substitutions, and which rung of the
// solve ladder answered.
type Quality struct {
	// Gather is the campaign's failure report (nil when Data was supplied).
	Gather *bench.FailureReport
	// FitR2 is the final per-component fit quality.
	FitR2 map[cesm.Component]float64
	// Refits maps components whose low-R² paper fit was replaced to the
	// substitute family name.
	Refits map[cesm.Component]string
	// SolvePath names the ladder rung that produced the decision: the
	// configured algorithm's name (e.g. "lp/nlp-bb") or "exhaustive".
	SolvePath string
	// SolveDeadline is true when the decision is a deadline incumbent
	// rather than a certified optimum.
	SolveDeadline bool
	// Notes records degradations in the order they happened.
	Notes []string
}

func (q *Quality) note(format string, args ...interface{}) {
	q.Notes = append(q.Notes, fmt.Sprintf(format, args...))
}

// Degraded reports whether anything beyond the happy path happened.
func (q *Quality) Degraded() bool {
	return len(q.Notes) > 0 || q.SolveDeadline || len(q.Refits) > 0 ||
		(q.Gather != nil && (len(q.Gather.Faults) > 0 || len(q.Gather.Dropped) > 0))
}

// PipelineResult carries the artifacts of all four steps.
type PipelineResult struct {
	Data      *bench.Data
	Fits      map[cesm.Component]*perf.FitResult
	Decision  *Decision
	Execution *cesm.Timing
	Quality   *Quality
}

// RunPipeline executes the four HSLB steps end to end:
//  1. Gather: benchmark runs at the campaign's node counts.
//  2. Fit: constrained least squares per component (Table II).
//  3. Solve: the Table I MINLP for the optimal allocation.
//  4. Execute: a CESM run with the chosen allocation.
func RunPipeline(po PipelineOptions) (*PipelineResult, error) {
	return RunPipelineContext(context.Background(), po)
}

// RunPipelineContext is RunPipeline under a context, with fault tolerance
// at every step: the gather step retries and, with a result store,
// resumes a crashed campaign (see bench.Campaign), low-quality fits are
// regated onto a simpler family, and the solve step falls back from the
// configured solver to the exact ExhaustiveSearch (any objective, any
// size) — so one failing stage downgrades the answer instead of killing
// the pipeline.
func RunPipelineContext(ctx context.Context, po PipelineOptions) (*PipelineResult, error) {
	out := &PipelineResult{Quality: &Quality{
		FitR2:  map[cesm.Component]float64{},
		Refits: map[cesm.Component]string{},
	}}
	q := out.Quality

	// Step 1: gather.
	if po.Data != nil {
		out.Data = po.Data
	} else {
		data, report, err := po.Campaign.RunContext(ctx)
		q.Gather = report
		if err != nil {
			return nil, fmt.Errorf("core: gather step: %w", err)
		}
		out.Data = data
	}

	// Step 2: fit, with the quality gate.
	fits, err := out.Data.FitAll(po.Fit)
	if err != nil {
		return nil, fmt.Errorf("core: fit step: %w", err)
	}
	if po.FitR2Gate > 0 {
		for _, c := range cesm.OptimizedComponents {
			f := fits[c]
			if f.R2 >= po.FitR2Gate {
				continue
			}
			ff, ferr := perf.FitFamily(out.Data.Samples[c], perf.AmdahlFamily)
			if ferr != nil || ff.R2 <= f.R2 {
				q.note("fit gate: %v R²=%.4f below gate %.4f and the Amdahl refit was no better", c, f.R2, po.FitR2Gate)
				continue
			}
			// a/n + d maps onto the Table II model with B = C = 0, which
			// keeps the downstream MINLP convex.
			fits[c] = &perf.FitResult{
				Model: perf.Model{A: ff.Params[0], D: ff.Params[1]},
				R2:    ff.R2,
				SSR:   ff.SSR,
			}
			q.Refits[c] = ff.Family.Name
			q.note("fit gate: %v R²=%.4f below gate %.4f, refit with %s family (R²=%.4f)", c, f.R2, po.FitR2Gate, ff.Family.Name, ff.R2)
		}
	}
	for _, c := range cesm.OptimizedComponents {
		q.FitR2[c] = fits[c].R2
	}
	out.Fits = fits

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 3: solve, walking the degradation ladder.
	spec := po.Spec
	spec.Perf = bench.Models(fits)
	solver := po.Solver
	if solver.Algorithm == 0 && !solver.BranchSOS && solver.MaxNodes == 0 {
		solver = SolverOptions()
	}
	sctx, cancel := ctx, context.CancelFunc(func() {})
	if po.SolveTimeout > 0 {
		sctx, cancel = context.WithTimeout(ctx, po.SolveTimeout)
	}
	dec, err := SolveAllocationContext(sctx, spec, solver)
	cancel()
	q.SolvePath = solver.Algorithm.String()
	if exactRoute(spec) {
		q.SolvePath = "exhaustive"
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if exactRoute(spec) {
			return nil, fmt.Errorf("core: solve step: %w", err)
		}
		exDec, exErr := ExhaustiveSearch(spec)
		if exErr != nil {
			return nil, fmt.Errorf("core: solve step: %w (exhaustive fallback: %v)", err, exErr)
		}
		q.note("solve: %v failed (%v), answered by exhaustive search", solver.Algorithm, err)
		dec, q.SolvePath = exDec, "exhaustive"
	}
	if dec.Status == minlp.Deadline {
		q.SolveDeadline = true
		q.note("solve: deadline hit after %d nodes; decision is the best incumbent, not a certified optimum", dec.Nodes)
	}
	out.Decision = dec

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 4: execute. The campaign's truth perturbation applies here too —
	// the validation run happens on the same (possibly changed) machine the
	// benchmarks measured.
	timing, err := cesm.RunContext(ctx, cesm.Config{
		Resolution: spec.Resolution,
		Layout:     spec.Layout,
		TotalNodes: spec.TotalNodes,
		Alloc:      dec.Alloc,
		Seed:       po.ExecuteSeed,
		TruthScale: po.Campaign.TruthScale,
	})
	if err != nil {
		return nil, fmt.Errorf("core: execute step: %w", err)
	}
	out.Execution = timing
	return out, nil
}
