// Package bench implements HSLB step 1 ("Gather", §III-F): run benchmark
// CESM simulations at a spread of node counts and collect per-component
// wall-clock samples for the fitting step.
package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hslb/internal/cesm"
	"hslb/internal/perf"
	"hslb/internal/resultstore"
)

// Campaign describes a benchmark data-gathering campaign: D short (5-day)
// runs at varied node counts, as recommended in §III-C (smallest feasible
// count, largest available, and a few points between to capture curvature).
type Campaign struct {
	Resolution cesm.Resolution
	Layout     cesm.Layout
	// NodeCounts are the total node counts to benchmark. Use
	// perf.SamplingPlan to generate them.
	NodeCounts []int
	// Repeats is the number of runs per node count (default 1). More
	// repeats average out machine noise at the cost of compute time.
	Repeats int
	// Seed drives the simulated machine's run-to-run noise.
	Seed int64
	// Allocate maps a total node count to the allocation used for that
	// benchmark run. Nil uses DefaultAllocation.
	Allocate func(res cesm.Resolution, layout cesm.Layout, total int) cesm.Allocation

	// Faults, if non-nil, injects deterministic failures into every run
	// (see cesm.FaultPlan) and routes each run through the CESM
	// timing-log text artifact, so corrupted logs surface as failures.
	Faults *cesm.FaultPlan
	// Retry configures per-run timeout, retry and backoff behavior. The
	// zero value retries recoverable failures up to DefaultMaxAttempts
	// times with exponential backoff.
	Retry RetryPolicy
	// OutlierK, if > 0, enables MAD-based outlier rejection of gathered
	// samples before fitting: samples whose relative residual from a
	// preliminary fit deviates from the median by more than OutlierK
	// scaled-MAD are dropped (recommended 4; see Data.RejectOutliers).
	OutlierK float64

	// Workers bounds how many (node count, repeat) runs execute
	// concurrently. The gather step is embarrassingly parallel — every
	// run is an independent simulation whose RNG derives from
	// AttemptSeed(Seed, rep, attempt) and whose injected faults are a
	// pure function of (plan seed, run seed, total) — so Data and the
	// FailureReport are bit-identical for any worker count. 0 means
	// runtime.GOMAXPROCS(0); 1 preserves the strictly sequential
	// execution order of the historical runner.
	Workers int
	// TruthScale perturbs the machine's ground-truth component times (see
	// cesm.Config.TruthScale): every run of the campaign evaluates the
	// scaled truth, so the gathered samples — and everything fitted from
	// them — reflect the changed machine.
	TruthScale map[cesm.Component]float64
	// Results, if non-nil, records the campaign in the versioned result
	// store: the evolving gather document is committed under
	// "gather/<CampaignID>" at every checkpoint boundary (each completed
	// run) and once more, marked complete, when the campaign finishes.
	// CampaignID must be non-empty for commits to happen. The store is
	// also how a crashed campaign resumes: rerun with the same Results,
	// CampaignID and plan, it replays the runs its incomplete head
	// document holds and executes only the missing ones. A complete head
	// or a different plan starts a new version of the document instead.
	Results    *resultstore.Store
	CampaignID string
	// RunLatency, if > 0, is simulated machine wall-clock added to every
	// run attempt (context-aware, so hangs, timeouts and cancellation
	// behave as before). The simulator evaluates a 5-day benchmark in
	// microseconds; on the paper's real machine the same run occupies
	// minutes of queue-and-run time. Benchmarks of the gather stage set
	// this so sequential-vs-parallel comparisons measure scheduling, not
	// the simulator's evaluation speed. It never affects the gathered
	// Data. Note RunLatency must stay below Retry.RunTimeout when both
	// are set, or every attempt times out.
	RunLatency time.Duration
}

// RunRecord summarizes one benchmark run for cost accounting.
type RunRecord struct {
	TotalNodes int
	Total      float64 // seconds of machine wall-clock
}

// Data holds gathered samples grouped per component.
type Data struct {
	Resolution cesm.Resolution
	Layout     cesm.Layout
	Samples    map[cesm.Component][]perf.Sample
	Runs       int
	// Records lists every benchmark run, for computing what the gather
	// step itself cost (the paper weighs HSLB's handful of short runs
	// against the "expensive ... person and computer time" of manual
	// tuning, §II).
	Records []RunRecord
}

// CoreHours returns the total compute the campaign consumed.
func (d *Data) CoreHours() float64 {
	s := 0.0
	for _, r := range d.Records {
		s += float64(r.TotalNodes) * cesm.CoresPerNode * r.Total / 3600
	}
	return s
}

// ErrNoCounts is returned for a campaign without node counts.
var ErrNoCounts = errors.New("bench: campaign has no node counts")

// DefaultAllocation builds a plausible benchmark allocation for a total
// node count under layout-1 constraints: the ocean takes roughly a fifth of
// the machine (snapped to its allowed set), the atmosphere the rest, and
// ice/land split the atmosphere's nodes 3:1 — mirroring the proportions of
// the paper's manual runs.
func DefaultAllocation(res cesm.Resolution, layout cesm.Layout, total int) cesm.Allocation {
	ocn := total / 5
	if ocn < 2 {
		ocn = 2
	}
	if set := cesm.OceanSet(res); len(set) > 0 {
		// Snap down so atm keeps the larger share.
		best := set[0]
		for _, v := range set {
			if v <= ocn && v > best {
				best = v
			}
		}
		if best <= total-2 {
			ocn = best
		}
	}
	if max := cesm.OceanMaxNodes(res); ocn > max {
		ocn = max
	}
	atm := total - ocn
	if max := cesm.AtmMaxNodes(res); atm > max {
		atm = max
	}
	if atm < 2 {
		atm = 2
		if ocn > total-atm {
			ocn = total - atm
		}
	}
	ice := atm * 3 / 4
	lnd := atm - ice
	// Clamp every component to at least one node. For atm >= 2 the 3:1
	// split always leaves room for both; the clamps also keep degenerate
	// inputs (atm capped to 1 by a tiny machine) from emitting a
	// zero-node component.
	if ice < 1 {
		ice = 1
	}
	if lnd < 1 {
		lnd = 1
	}
	if ice+lnd > atm && ice > 1 {
		ice = atm - lnd
		if ice < 1 {
			ice = 1
		}
	}
	return cesm.Allocation{Atm: atm, Ocn: ocn, Ice: ice, Lnd: lnd}
}

// Run executes the campaign and returns per-component samples. It is the
// context-free form of RunContext; the failure report is discarded.
func (c Campaign) Run() (*Data, error) {
	data, _, err := c.RunContext(context.Background())
	return data, err
}

// FitAll fits the Table II performance model to every component's samples
// (HSLB step 2).
func (d *Data) FitAll(opt perf.FitOptions) (map[cesm.Component]*perf.FitResult, error) {
	out := map[cesm.Component]*perf.FitResult{}
	for _, comp := range cesm.OptimizedComponents {
		res, err := perf.Fit(d.Samples[comp], opt)
		if err != nil {
			return nil, fmt.Errorf("bench: fitting %v: %w", comp, err)
		}
		out[comp] = res
	}
	return out, nil
}

// Models extracts just the fitted models from FitAll results.
func Models(fits map[cesm.Component]*perf.FitResult) map[cesm.Component]perf.Model {
	out := map[cesm.Component]perf.Model{}
	for c, f := range fits {
		out[c] = f.Model
	}
	return out
}
