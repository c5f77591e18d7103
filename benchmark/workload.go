package main

import (
	"context"
	"fmt"
	"path/filepath"
	"syscall"
	"time"
)

// The four workloads, in the order "-workload all" runs them. Why each
// exists is in BENCHMARK.json and the README.
const (
	wlTable3 = "table3-pipeline"
	wlCold   = "fleet-cold"
	wlHit    = "fleet-hit"
	wlMixed  = "fleet-mixed"
)

var workloadNames = []string{wlTable3, wlCold, wlHit, wlMixed}

// primaryClass is the class of operation whose latency a workload reports
// end to end: the one its user waits for.
var primaryClass = map[string]string{wlTable3: classDecision, wlCold: classCold, wlHit: classHit, wlMixed: classHit}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	basePort int
	// draw is the seed's choice of fit seeds from the golden file.
	draw *draw
}

// dirs are the scratch locations of one run, all under benchmark/out.
type dirs struct {
	bin string // the two binaries under test
	run string // logs, stores, trace.json, report.json
}

// prepared is a workload after its set-up, ready for the timed section.
type prepared struct {
	decisions []*instance // table3-pipeline: one per decision, in order
	ops       []op        // fleet workloads: the request sequence
	fleet     *fleet      // nil for table3-pipeline
}

func (p *prepared) close() {
	if p != nil && p.fleet != nil {
		p.fleet.stop()
	}
}

// prepare is the set-up a round pays before timing: generate the round's
// corpus from the seed (gather and fit per fit seed, references, requests),
// start the fleet and wait until it is ready, and pre-solve the hit pool.
func prepare(ctx context.Context, cfg config, tr *tracer, d dirs, round int) (p *prepared, err error) {
	p = &prepared{}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if cfg.workload == wlTable3 {
		p.decisions, err = table3Instances(tr, cfg.draw, cfg.seconds, round)
		return p, err
	}
	first := round * slotsPerRound(cfg.workload, cfg.seconds)
	var pool, fresh []*instance
	switch cfg.workload {
	case wlCold:
		fresh, err = cfg.draw.fleetCorpus(tr, first, coldFitSeeds(cfg.seconds))
	case wlHit:
		pool, err = cfg.draw.fleetCorpus(tr, first, poolFitSeeds)
	case wlMixed:
		pool, err = cfg.draw.fleetCorpus(tr, first, poolFitSeeds)
		if err == nil {
			_, coldSeeds := mixedSizes(cfg.seconds)
			fresh, err = cfg.draw.fleetCorpus(tr, first+poolFitSeeds, coldSeeds)
		}
	}
	if err != nil {
		return p, err
	}
	// The logs of every round stay; a traced run's two rounds share a name,
	// and the traced one's logs are the ones that stay.
	if p.fleet, err = startFleet(ctx, d.bin, filepath.Join(d.run, fmt.Sprintf("fleet-round%d", round+1)), cfg.basePort); err != nil {
		return p, err
	}
	if err = p.fleet.presolve(ctx, pool); err != nil {
		return p, err
	}
	// Every round orders and draws its requests differently.
	seqSeed := cfg.seed*rounds + int64(round)
	switch cfg.workload {
	case wlCold:
		p.ops = coldSequence(seqSeed, fresh)
	case wlHit:
		p.ops = hitSequence(seqSeed, pool, hitRequests(cfg.seconds))
	case wlMixed:
		hits, _ := mixedSizes(cfg.seconds)
		p.ops = mixedSequence(seqSeed, pool, fresh, hits)
	}
	return p, nil
}

// sample is one finished operation with what is needed to check it.
type sample struct {
	class    string
	inst     *instance
	answer   answer
	executed float64 // the pipeline's own step-4 total, 0 for fleet requests
}

// section is what one timed section (or one probe section) produced.
type section struct {
	samples []sample
	wallS   float64
	// fleet is the change of the fleet's counters across the section; nil
	// for table3-pipeline.
	fleet      map[string]float64
	clientCPUS float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timed runs the round's operations once. An operation still outstanding at
// four times the round's share of the run length is abandoned and counts as
// failed; no round is taken to be shorter than seven seconds, which the
// constrained 1° decision alone can take whatever -seconds says.
func (p *prepared) timed(ctx context.Context, cfg config, tr *tracer) (section, error) {
	limit := 4 * max(time.Duration(cfg.seconds)*time.Second/rounds, 7*time.Second)
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	if p.fleet == nil {
		cpu0 := cpuSeconds()
		answers, executed, wall := runTable3(ctx, tr, p.decisions)
		s := section{wallS: wall.Seconds(), clientCPUS: cpuSeconds() - cpu0}
		for i, in := range p.decisions {
			s.samples = append(s.samples, sample{classDecision, in, answers[i], executed[i]})
		}
		return s, nil
	}
	return p.fleet.section(ctx, tr, p.ops)
}

// section runs the operations over the fleet between two scrapes.
func (f *fleet) section(ctx context.Context, tr *tracer, ops []op) (section, error) {
	before, err := f.scrape()
	if err != nil {
		return section{}, fmt.Errorf("scrape before the section: %w", err)
	}
	cpu0 := cpuSeconds()
	answers, wall := f.closedLoop(ctx, tr, ops)
	s := section{wallS: wall.Seconds(), clientCPUS: cpuSeconds() - cpu0}
	f.settle()
	if s.fleet, err = f.since(before); err != nil {
		return section{}, fmt.Errorf("scrape after the section: %w", err)
	}
	for i, o := range ops {
		s.samples = append(s.samples, sample{o.class, o.inst, answers[i], 0})
	}
	return s, nil
}

// assessment is the verdict on a section's operations.
type assessment struct {
	attempted, failed int
	failures          []string             // the first few reasons, for the reader
	latencyMS         map[string][]float64 // per class, correct operations only
	// byRung is the same latencies grouped by class, then rung.
	byRung     map[string]map[string][]float64
	qualityGap float64   // worst relative excess over the exact optimum
	predErr    []float64 // per correct operation
}

// assess checks every operation of a section. Identical answers to one
// instance — every hit on a key — are checked once. Solver invocations
// beyond the section's cold requests are re-solves of something the fleet
// already held — a warm request that was not answered from a peer, say — and
// each counts as a failure too. Peer hits are not held to the warm count: the
// router's bounded-load rule now and then spills a hit onto the one shard
// that does not hold its key, which fetches it from a peer then, so that the
// later warm request finds it cached.
func assess(s section) assessment {
	as := assessment{attempted: len(s.samples), latencyMS: map[string][]float64{}, byRung: map[string]map[string][]float64{}}
	fail := func(format string, args ...interface{}) {
		as.failed++
		if len(as.failures) < 5 {
			as.failures = append(as.failures, fmt.Sprintf(format, args...))
		}
	}
	type answered struct {
		inst     *instance
		alloc    [4]int
		reported float64
	}
	seen := map[answered]verdict{}
	colds := 0
	for _, sm := range s.samples {
		if sm.class == classCold {
			colds++
		}
		a := sm.answer
		k := answered{sm.inst, [4]int{a.alloc.Atm, a.alloc.Ocn, a.alloc.Ice, a.alloc.Lnd}, a.reported}
		v, ok := seen[k]
		if !ok || a.err != "" {
			v = check(sm.inst, a, sm.executed)
			seen[k] = v
		}
		if v.fail != "" {
			fail("%s %s (fit seed %d): %s", sm.class, sm.inst.rung.name, sm.inst.fitSeed, v.fail)
			continue
		}
		as.latencyMS[sm.class] = append(as.latencyMS[sm.class], a.latencyMS)
		if as.byRung[sm.class] == nil {
			as.byRung[sm.class] = map[string][]float64{}
		}
		as.byRung[sm.class][sm.inst.rung.name] = append(as.byRung[sm.class][sm.inst.rung.name], a.latencyMS)
		as.qualityGap = max(as.qualityGap, v.gap)
		as.predErr = append(as.predErr, v.predErr)
	}
	if s.fleet != nil {
		solves := int(s.fleet["neos.solver_invocations"])
		for i := colds; i < solves; i++ {
			fail("%d solver invocations for %d cold requests: a held result was solved again (%g peer consults ran out of budget)",
				solves, colds, s.fleet["neos.peer_budget_exhausted"])
		}
	}
	return as
}
