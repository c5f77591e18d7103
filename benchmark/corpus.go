package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"hslb/internal/bench"
	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/neos"
	"hslb/internal/perf"
)

// rung is one size of the Table I allocation model.
type rung struct {
	name        string
	res         cesm.Resolution
	nodes       int
	constrained bool
}

func mkRung(res cesm.Resolution, nodes int, constrained bool) rung {
	name := fmt.Sprintf("1deg-%d", nodes)
	if res == cesm.Res8thDeg {
		name = fmt.Sprintf("8th-%d", nodes)
	}
	if !constrained {
		name += "-uncon"
	}
	return rung{name, res, nodes, constrained}
}

var (
	// rung1deg is Table III's first block, the constrained 1° model at 128
	// nodes. Its 1638-element atmosphere set makes it a solve of several
	// seconds that is almost all dense LP pivots. It stands for the
	// constrained 1° sizes: they cost alike, and this is the one the golden
	// file vets.
	rung1deg = mkRung(cesm.Res1Deg, 128, true)
	// table3Rungs8th are the four 1/8° blocks of Table III; every pass of
	// table3-pipeline decides all four from its own fit seed.
	table3Rungs8th = []rung{
		mkRung(cesm.Res8thDeg, 8192, true),
		mkRung(cesm.Res8thDeg, 32768, true),
		mkRung(cesm.Res8thDeg, 8192, false),
		mkRung(cesm.Res8thDeg, 32768, false),
	}
	// fleetRungs are the eleven models a fit seed contributes to a fleet
	// corpus. The constrained 1° rungs are left out: through the AMPL path
	// they take 6–40 s each, which leaves too few samples for a percentile.
	fleetRungs = []rung{
		mkRung(cesm.Res1Deg, 128, false),
		mkRung(cesm.Res1Deg, 256, false),
		mkRung(cesm.Res1Deg, 512, false),
		mkRung(cesm.Res1Deg, 1024, false),
		mkRung(cesm.Res1Deg, 2048, false),
		mkRung(cesm.Res8thDeg, 8192, true),
		mkRung(cesm.Res8thDeg, 8192, false),
		mkRung(cesm.Res8thDeg, 16384, true),
		mkRung(cesm.Res8thDeg, 16384, false),
		mkRung(cesm.Res8thDeg, 32768, true),
		mkRung(cesm.Res8thDeg, 32768, false),
	}
	// allRungs are every rung a run of any length can pose (table3Rungs8th
	// are among the fleet rungs): the golden file vets a fit seed on all of
	// them, and the traced run's probe ladder solves them.
	allRungs = append([]rung{rung1deg}, fleetRungs...)
)

// campaign is the step-1 plan every fit uses: six node counts spanning the
// resolution's range, two runs each (experiments.FitModels uses the same).
func campaign(res cesm.Resolution, seed int64) bench.Campaign {
	plan := perf.SamplingPlan(64, 2048, 6)
	if res == cesm.Res8thDeg {
		plan = perf.SamplingPlan(1024, 32768, 6)
	}
	return bench.Campaign{Resolution: res, Layout: cesm.Layout1, NodeCounts: plan, Repeats: 2, Seed: seed, Workers: 1}
}

var fitOptions = perf.FitOptions{ConvexExponent: true}

// fitModels runs gather and fit (HSLB steps 1–2) for one resolution.
func fitModels(tr *tracer, res cesm.Resolution, seed int64) (map[cesm.Component]perf.Model, error) {
	g := tr.start("bench.gather", res.String(), 0, 0)
	data, err := campaign(res, seed).Run()
	tr.end(g, nil)
	if err != nil {
		return nil, fmt.Errorf("gather %v seed %d: %w", res, seed, err)
	}
	f := tr.start("perf.fit", res.String(), 0, 0)
	fits, err := data.FitAll(fitOptions)
	tr.end(f, nil)
	if err != nil {
		return nil, fmt.Errorf("fit %v seed %d: %w", res, seed, err)
	}
	return bench.Models(fits), nil
}

// instance is one allocation problem with everything needed to pose it and
// to check the answer.
type instance struct {
	rung    rung
	fitSeed int64
	spec    core.Spec
	// ref is the exact optimum of spec (see exactOptimum).
	ref float64
	// key is neos.RequestKey of the instance's AMPL request: the digest the
	// router hashes on, the solve-cache key, and the golden-file key.
	key string
	// req is the /solve request; body is its JSON, encoded once so the timed
	// loop does no encoding.
	req  *neos.SolveRequest
	body []byte
}

func (r rung) spec(models map[cesm.Component]perf.Model) core.Spec {
	return core.Spec{
		Resolution:     r.res,
		Layout:         cesm.Layout1,
		TotalNodes:     r.nodes,
		Perf:           models,
		ConstrainOcean: r.constrained,
		ConstrainAtm:   r.constrained && r.res == cesm.Res1Deg,
	}
}

// solveRequest is the request every fleet operation sends: the paper's
// solver setup (LP/NLP branch-and-bound, SOS branching, 0.01 % gap).
func solveRequest(model string) *neos.SolveRequest {
	return &neos.SolveRequest{Model: model, BranchSOS: true, RelGap: 1e-4}
}

// newInstance poses the rung under the fitted models and computes its
// reference optimum and request.
func newInstance(tr *tracer, r rung, seed int64, models map[cesm.Component]perf.Model) (*instance, error) {
	in := &instance{rung: r, fitSeed: seed, spec: r.spec(models)}
	var err error
	s := tr.start("oracle.reference", r.name, 0, 0)
	in.ref, err = exactOptimum(in.spec)
	tr.end(s, nil)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", r.name, seed, err)
	}
	src, err := core.WriteAMPL(in.spec)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", r.name, seed, err)
	}
	in.req = solveRequest(src)
	if in.key, err = neos.RequestKey(in.req); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", r.name, seed, err)
	}
	if in.body, err = json.Marshal(in.req); err != nil {
		return nil, err
	}
	return in, nil
}

// ladder fits the resolutions the rungs need from one fit seed and returns
// an instance per rung, with the digest of each resolution's fitted models.
func ladder(tr *tracer, rungs []rung, seed int64) ([]*instance, map[string]string, error) {
	models := map[cesm.Resolution]map[cesm.Component]perf.Model{}
	digests := map[string]string{}
	var out []*instance
	for _, r := range rungs {
		if models[r.res] == nil {
			m, err := fitModels(tr, r.res, seed)
			if err != nil {
				return nil, nil, err
			}
			models[r.res] = m
			digests[r.res.String()] = modelDigest(m)
		}
		in, err := newInstance(tr, r, seed, models[r.res])
		if err != nil {
			return nil, nil, err
		}
		out = append(out, in)
	}
	return out, digests, nil
}

// rounds is how many times an untraced run sets up afresh and measures; every
// end-to-end metric is the median of its per-round values. A fleet's speed
// depends a little on how its processes happened to land, and the host
// stalls in bursts: the median of three rounds ignores one unlucky fleet or
// one stalled round, where a single long section carries either in full.
const rounds = 3

// Sizes of one round of each workload at a run length. They depend on
// -seconds alone, so two commits do identical work and solver counts repeat
// exactly; they are sized so that the three rounds of a run measure for about
// -seconds on the 2-CPU reference host.

// table3Passes: passes over the four 1/8° rungs, beside the one constrained
// 1° decision every round makes.
func table3Passes(seconds int) int { return max(1, seconds/7) }

func coldFitSeeds(seconds int) int { return max(1, seconds/3) }

// poolFitSeeds: the hit pool is 22 keys, solved afresh in every set-up.
const poolFitSeeds = 2

func hitRequests(seconds int) int { return 500 * seconds }

// mixedSizes keeps the issue's mix of 6 000 hits to 110 cold and 110 warm
// requests: 600 hits to each fit seed of never-seen models.
func mixedSizes(seconds int) (hits, coldSeeds int) {
	coldSeeds = max(1, seconds/5)
	return 600 * coldSeeds, coldSeeds
}

// slotsPerRound is how many fit seeds of the draw one round of the workload
// takes: round r takes slots r×slotsPerRound onward, so that no two rounds of
// a run meet the same model.
func slotsPerRound(workload string, seconds int) int {
	switch workload {
	case wlTable3:
		return table3Passes(seconds)
	case wlCold:
		return coldFitSeeds(seconds)
	case wlHit:
		return poolFitSeeds
	default:
		_, coldSeeds := mixedSizes(seconds)
		return poolFitSeeds + coldSeeds
	}
}

// probeSlot is the first slot that no round of any workload takes: the
// traced run's probe pass poses its ladder from it and its hit pool from the
// next.
func probeSlot(seconds int) int {
	most := 0
	for _, w := range workloadNames {
		most = max(most, slotsPerRound(w, seconds))
	}
	return rounds * most
}

// Classes of fleet request.
const (
	classHit      = "hit"
	classCold     = "cold"
	classWarm     = "warm"
	classDecision = "decision"
)

// op is one request of a fleet workload.
type op struct {
	class string
	inst  *instance
	// after, for a warm request whose key is solved by an earlier cold
	// request of the same sequence, is that request's index; -1 otherwise.
	// The client waits for it to finish before it starts the clock.
	after int
}

// mixedSequence interleaves hits over the pool, one cold request per fresh
// instance, and as many warm requests, in an order fixed by the seed. A warm
// request re-asks a key that is already solved — a pool key, or a fresh key
// whose cold request comes earlier in the sequence — and each key is
// warm-asked at most once, because with three shards and two replicas a key
// has exactly one shard that does not hold it.
func mixedSequence(seed int64, pool, fresh []*instance, hits int) []op {
	rng := rand.New(rand.NewSource(seed))
	classes := make([]string, 0, hits+2*len(fresh))
	for i := 0; i < hits; i++ {
		classes = append(classes, classHit)
	}
	for range fresh {
		classes = append(classes, classCold, classWarm)
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	type solved struct {
		inst  *instance
		after int
	}
	var warmable []solved
	for _, in := range pool {
		warmable = append(warmable, solved{in, -1})
	}
	ops := make([]op, 0, len(classes))
	nextFresh := 0
	for i, c := range classes {
		if c == classWarm && len(warmable) == 0 {
			// Nothing is solved yet that was not warmed already: take the
			// next cold request first.
			for j := i + 1; j < len(classes); j++ {
				if classes[j] == classCold {
					classes[i], classes[j] = classCold, classWarm
					c = classCold
					break
				}
			}
		}
		switch c {
		case classHit:
			ops = append(ops, op{class: c, inst: pool[rng.Intn(len(pool))], after: -1})
		case classCold:
			ops = append(ops, op{class: c, inst: fresh[nextFresh], after: -1})
			warmable = append(warmable, solved{fresh[nextFresh], len(ops) - 1})
			nextFresh++
		case classWarm:
			k := rng.Intn(len(warmable))
			ops = append(ops, op{class: c, inst: warmable[k].inst, after: warmable[k].after})
			warmable[k] = warmable[len(warmable)-1]
			warmable = warmable[:len(warmable)-1]
		}
	}
	return ops
}
