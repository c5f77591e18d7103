package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"hslb/internal/ampl"
	"hslb/internal/core"
	"hslb/internal/expr"
	"hslb/internal/linalg"
	"hslb/internal/lp"
	"hslb/internal/minlp"
	"hslb/internal/neos"
	"hslb/internal/nlp"
	"hslb/internal/overload"
	"hslb/internal/resultstore"
	"hslb/internal/router"
	"hslb/internal/solvecache"
)

// metric is one reported number with the count of samples behind it. From is
// "probe" on a per-layer metric that the traced run took from the probe pass,
// because the workload's own section has no operation of that kind.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	From  string  `json:"from,omitempty"`
}

// probeResult is what the probe pass measured.
type probeResult struct {
	metrics  map[string]metric
	failures []string
}

// probePass measures every per-layer metric that is not tied to one workload:
// it is the same procedure whatever workload the traced run is for, and a
// traced run reports its numbers for the kinds of operation the workload's
// own section lacks. It makes the staged library decision for every rung and
// the AMPL decision for the fleet rungs (the probe ladder, from a fit seed no
// round uses), times the layers below from outside, and runs a small mixed
// sequence and a direct-versus-routed comparison on a fleet of its own. Its
// spans go to trace.json in its own directory under benchmark/out.
func probePass(ctx context.Context, cfg config, bin string) (*probeResult, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("probes-seed%d", cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer()
	m := map[string]metric{}

	tr.setPhase("setup")
	ladder, err := cfg.draw.ladder(tr, allRungs, probeSlot(cfg.seconds))
	if err != nil {
		return nil, err
	}
	pool, err := cfg.draw.fleetCorpus(tr, probeSlot(cfg.seconds)+1, 1)
	if err != nil {
		return nil, err
	}
	tr.setPhase("probe")
	decisions, err := solveLadder(ctx, tr, ladder, m)
	if err != nil {
		return nil, err
	}
	decided := tr.selected("pipeline.decision", "probe")
	pipelineMetrics(m, tr, "probe", spanSeconds(decided))
	m["minlp.nlpbb_excess"] = nlpbbExcess(ctx, ladder, decisions)

	micro, err := layerProbes(cfg.seed, ladder[0], ladder[1:], filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	for k, v := range micro {
		m[k] = v
	}

	f, err := startFleet(ctx, bin, filepath.Join(dir, "fleet"), cfg.basePort)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if err := f.presolve(ctx, pool); err != nil {
		return nil, err
	}
	const hits, pairs = 200, 100
	sec, err := f.section(ctx, tr, mixedSequence(cfg.seed, pool, ladder[1:], hits))
	if err != nil {
		return nil, err
	}
	as := assess(sec)
	fleetMetrics(m, sec, as)
	direct, routed := f.directVersusRouted(ctx, pool, pairs)
	m["neos.direct_hit_p50_ms"] = metric{Value: median(direct), Unit: "ms", N: len(direct)}
	m["router.hop_p50_ms"] = metric{Value: median(routed) - median(direct), Unit: "ms", N: len(routed)}

	res := &probeResult{metrics: m}
	for name, v := range m {
		v.From = "probe"
		m[name] = v
	}
	for _, why := range as.failures {
		res.failures = append(res.failures, "probe pass: "+why)
	}
	return res, tr.write(filepath.Join(dir, "trace.json"))
}

// Names of the five pipeline stages as spans, with the unit each is reported
// in.
var stages = []struct{ span, metric, unit string }{
	{"bench.gather", "bench.gather_s", "s"},
	{"perf.fit", "perf.fit_s", "s"},
	{"core.build", "core.build_ms", "ms"},
	{"minlp.solve", "minlp.solve_s", "s"},
	{"cesm.execute", "cesm.execute_ms", "ms"},
}

func spanSeconds(spans []span) float64 {
	t := 0.0
	for _, s := range spans {
		t += s.seconds()
	}
	return t
}

// pipelineMetrics fills in, from the staged decisions the tracer recorded in
// the phase, the five stage totals, the solve time of every rung decided, and
// the solver's counters. It returns pipeline.stage_share, the stages' sum ÷
// total: the time the decisions took that the five stages account for.
func pipelineMetrics(m map[string]metric, tr *tracer, phase string, total float64) (share float64) {
	stageSum := 0.0
	for _, st := range stages {
		spans := tr.selected(st.span, phase)
		v := spanSeconds(spans)
		stageSum += v
		if st.unit == "ms" {
			v *= 1e3
		}
		m[st.metric] = metric{Value: v, Unit: st.unit, N: len(spans)}
	}
	share = stageSum / total
	m["pipeline.stage_share"] = metric{Value: share, Unit: "ratio", N: len(tr.selected("pipeline.decision", phase))}

	solves := tr.selected("minlp.solve", phase)
	byRung := map[string][]span{}
	counts := map[string]float64{}
	for _, s := range solves {
		byRung[s.Tag] = append(byRung[s.Tag], s)
		for k, v := range s.Counts {
			counts[k] += v
		}
	}
	for rung, spans := range byRung {
		m["minlp.solve_s."+rung] = metric{Value: spanSeconds(spans), Unit: "s", N: len(spans)}
	}
	for _, k := range []string{"nodes", "nlp_solves", "cuts", "lp_warm_hits"} {
		m["minlp."+k] = metric{Value: counts[k], Unit: "count", N: len(solves)}
	}
	m["minlp.node_ms"] = metric{Value: spanSeconds(solves) / counts["nodes"] * 1e3, Unit: "ms", N: int(counts["nodes"])}
	return share
}

// fleetMetrics fills in what a section on a fleet shows of the layers: the
// latency of each request class it has, the change of the fleet's counters
// across it, and what a cold request cost beyond its solve.
func fleetMetrics(m map[string]metric, sec section, as assessment) {
	for _, c := range []struct {
		class string
		tail  float64 // the highest percentile with ten samples beyond it
	}{{classHit, 99}, {classCold, 90}, {classWarm, 90}} {
		if lat := as.latencyMS[c.class]; len(lat) > 0 {
			m[c.class+"_p50_ms"] = metric{Value: median(lat), Unit: "ms", N: len(lat)}
			m[fmt.Sprintf("%s_p%g_ms", c.class, c.tail)] = metric{Value: percentile(lat, c.tail), Unit: "ms", N: len(lat)}
		}
	}
	for name, unit := range fleetUnits {
		m[name] = metric{Value: sec.fleet[name], Unit: unit, N: 1}
	}
	// Peer-consult miss, admission wait, persist, HTTP.
	if cold := as.latencyMS[classCold]; len(cold) > 0 {
		m["neos.nonsolver_ms"] = metric{Value: mean(cold) - sec.fleet["neos.solver_busy_s"]/sec.fleet["neos.solver_invocations"]*1e3, Unit: "ms", N: len(cold)}
	}
}

// solveLadder makes the staged library decision for every instance of the
// probe ladder and the AMPL decision for its fleet rungs, recording spans,
// and fills in what comparing the two paths shows. It returns the library's
// answers.
func solveLadder(ctx context.Context, tr *tracer, insts []*instance, m map[string]metric) ([]answer, error) {
	answers := make([]answer, len(insts))
	nodeRatio, disagree := 0.0, 0.0
	for i, in := range insts {
		a, _ := decideTraced(tr, -(i + 1), in)
		if a.err != "" {
			return nil, fmt.Errorf("probe ladder %s: %s", in.rung.name, a.err)
		}
		answers[i] = a
		if in.rung == rung1deg {
			continue // no AMPL side: see fleetRungs
		}
		s := tr.start("neos.execute", in.rung.name, -(i + 1), 0)
		resp := neos.ExecuteRequest(ctx, in.req, 1)
		tr.end(s, map[string]float64{"nodes": float64(resp.Nodes)})
		if resp.Status != "optimal" {
			return nil, fmt.Errorf("probe ladder %s via AMPL: status %s %s", in.rung.name, resp.Status, resp.Error)
		}
		nodeRatio = math.Max(nodeRatio, float64(resp.Nodes)/float64(a.nodes))
		disagree = math.Max(disagree, math.Abs(resp.Objective-a.reported)/a.reported)
	}
	m["ampl.node_ratio"] = metric{Value: nodeRatio, Unit: "ratio", N: len(fleetRungs)}
	m["ampl.obj_disagree"] = metric{Value: disagree, Unit: "ratio", N: len(fleetRungs)}
	exec := tr.selected("neos.execute", "probe")
	m["neos.execute_ms"] = metric{Value: spanSeconds(exec) / float64(len(exec)) * 1e3, Unit: "ms", N: len(exec)}
	return answers, nil
}

// nlpbbExcess solves each Table III rung of the probe ladder again with
// NLP-based branch-and-bound and returns the worst relative excess of an
// answer it calls optimal over the outer-approximation objective oa.
// Informational: it is the number the ROADMAP's "Certified answers" item
// starts from. Solves that do not finish in two seconds are left out.
func nlpbbExcess(ctx context.Context, insts []*instance, oa []answer) metric {
	table3 := map[rung]bool{rung1deg: true}
	for _, r := range table3Rungs8th {
		table3[r] = true
	}
	excess, n := 0.0, 0
	for i, in := range insts {
		if !table3[in.rung] {
			continue
		}
		opt := core.SolverOptions()
		opt.Algorithm = minlp.NLPBB
		sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		d, err := core.SolveAllocationContext(sctx, in.spec, opt)
		cancel()
		if err != nil || d.Status != minlp.Optimal {
			continue
		}
		n++
		excess = math.Max(excess, (d.PredictedTime-oa[i].reported)/oa[i].reported)
	}
	return metric{Value: excess, Unit: "ratio", N: n}
}

// probeBudget is how long each micro-probe measures.
const probeBudget = 60 * time.Millisecond

// perCall times fn in batches until the budget is spent and returns the
// median batch's time per call in nanoseconds, with the number of calls.
// prepare, if not nil, runs untimed before every batch.
func perCall(batch int, prepare, fn func()) (ns float64, n int) {
	var samples []float64
	for spent := time.Duration(0); spent < probeBudget || len(samples) < 3; {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		d := time.Since(t0)
		spent += d
		samples = append(samples, float64(d.Nanoseconds())/float64(batch))
	}
	return median(samples), len(samples) * batch
}

// layerProbes times the public entry points of every layer below the
// pipeline and the service, in this process and without sockets, on inputs
// taken from the probe ladder: shape is the constrained 1° rung (the model
// whose dense LPs dominate table3-pipeline), bodies are the AMPL requests of
// the fleet rungs. scratch is a directory for the store probes.
func layerProbes(seed int64, shape *instance, fleet []*instance, scratch string) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name, unit string, ns float64, n int, per float64) {
		out[name] = metric{Value: ns / per, Unit: unit, N: n}
	}
	rng := rand.New(rand.NewSource(seed))

	// expr: the four operations the solvers apply to a constraint body.
	m, _, err := core.BuildModel(shape.spec)
	if err != nil {
		return nil, err
	}
	nv := m.NumVars()
	x := make([]float64, nv)
	box := make([]expr.Interval, nv)
	for i, v := range m.Vars {
		lo, hi := v.Lower, math.Min(v.Upper, v.Lower+1e6)
		x[i] = (lo + hi) / 2
		box[i] = expr.Interval{Lo: lo, Hi: hi}
	}
	grad := make([]float64, nv)
	bodies := float64(len(m.Cons))
	var sink float64
	ns, n := perCall(1, nil, func() {
		for i := range m.Cons {
			sink += m.Cons[i].Body.Eval(x)
		}
	})
	put("expr.eval_ns", "ns", ns, n*len(m.Cons), bodies)
	ns, n = perCall(1, nil, func() {
		for i := range m.Cons {
			sink += expr.Gradient(m.Cons[i].Body, x, grad)
		}
	})
	put("expr.grad_ns", "ns", ns, n*len(m.Cons), bodies)
	ns, n = perCall(1, nil, func() {
		for i := range m.Cons {
			sink += expr.EvalInterval(m.Cons[i].Body, box).Lo
		}
	})
	put("expr.interval_ns", "ns", ns, n*len(m.Cons), bodies)
	ns, n = perCall(1, nil, func() {
		for i := range m.Cons {
			sink += expr.LinearizeAt(m.Cons[i].Body, x).Constant
		}
	})
	put("expr.linearize_ns", "ns", ns, n*len(m.Cons), bodies)

	// lp: a seeded LP shaped like the rung's master problem — one column
	// per model variable, one row per linear constraint plus one per cut
	// the solve added — cold, then warm after appended cuts.
	res, err := minlp.Solve(m, core.SolverOptions())
	if err != nil {
		return nil, err
	}
	rows := res.Cuts
	for i := range m.Cons {
		if m.Cons[i].IsLinear() {
			rows++
		}
	}
	randomRow := func(inside []float64) ([]float64, float64) {
		coef := make([]float64, nv)
		rhs := rng.Float64()
		for j := range coef {
			coef[j] = rng.Float64()*2 - 1
			rhs += coef[j] * inside[j]
		}
		return coef, rhs
	}
	inside := make([]float64, nv)
	for j := range inside {
		inside[j] = rng.Float64()
	}
	newLP := func() *lp.Problem {
		p := lp.NewProblem(nv)
		for j := 0; j < nv; j++ {
			p.Obj[j] = rng.Float64()*2 - 1
			p.Upper[j] = 1
		}
		for i := 0; i < rows; i++ {
			coef, rhs := randomRow(inside)
			p.AddConstraint(coef, lp.LE, rhs)
		}
		return p
	}
	p := newLP()
	var lpErr error
	ns, n = perCall(1, nil, func() {
		if _, err := lp.Solve(p); err != nil {
			lpErr = err
		}
	})
	put("lp.solve_us", "us", ns, n, 1e3)
	var ws *lp.WarmSolver
	const cutsPerBatch = 8
	ns, n = perCall(cutsPerBatch, func() {
		ws = lp.NewWarmSolver(newLP())
		if _, err := ws.Solve(); err != nil {
			lpErr = err
		}
	}, func() {
		coef, rhs := randomRow(inside)
		ws.AddConstraint(coef, lp.LE, rhs)
		if _, err := ws.Solve(); err != nil {
			lpErr = err
		}
	})
	put("lp.warm_solve_us", "us", ns, n, 1e3)
	if lpErr != nil {
		return nil, fmt.Errorf("lp probe: %w", lpErr)
	}

	// nlp: the rung's continuous relaxation from its mid-box start.
	relaxed := m.Relax()
	var nlpErr error
	ns, n = perCall(1, nil, func() {
		if _, err := nlp.Solve(relaxed, x, nlp.Options{}); err != nil {
			nlpErr = err
		}
	})
	if nlpErr != nil {
		return nil, fmt.Errorf("nlp probe: %w", nlpErr)
	}
	put("nlp.solve_ms", "ms", ns, n, 1e6)

	// linalg: LU of a seeded, diagonally dominant matrix of the same order.
	a := linalg.NewMatrix(nv, nv)
	for i := 0; i < nv; i++ {
		for j := 0; j < nv; j++ {
			a.Set(i, j, rng.Float64()*2-1)
		}
		a.Set(i, i, float64(nv))
	}
	var luErr error
	ns, n = perCall(1, nil, func() {
		if _, err := linalg.FactorLU(a); err != nil {
			luErr = err
		}
	})
	if luErr != nil {
		return nil, fmt.Errorf("linalg probe: %w", luErr)
	}
	put("linalg.lu_us", "us", ns, n, 1e3)

	// ampl and the request key: what the router and then the shard do to
	// every request before anything else.
	each := float64(len(fleet))
	var amplErr error
	ns, n = perCall(1, nil, func() {
		for _, in := range fleet {
			if _, err := ampl.Parse(in.req.Model); err != nil {
				amplErr = err
			}
		}
	})
	put("ampl.parse_us", "us", ns, n*len(fleet), 1e3*each)
	ns, n = perCall(1, nil, func() {
		for _, in := range fleet {
			if _, err := ampl.Canonical(in.req.Model); err != nil {
				amplErr = err
			}
		}
	})
	put("ampl.canonical_us", "us", ns, n*len(fleet), 1e3*each)
	ns, n = perCall(1, nil, func() {
		for _, in := range fleet {
			if _, err := neos.RequestKey(in.req); err != nil {
				amplErr = err
			}
		}
	})
	put("neos.request_key_us", "us", ns, n*len(fleet), 1e3*each)
	if amplErr != nil {
		return nil, fmt.Errorf("ampl probe: %w", amplErr)
	}

	// solvecache, admission, ring: the hit path's in-memory steps.
	cache := solvecache.New[*neos.SolveResponse](4096)
	val := &neos.SolveResponse{Status: "optimal"}
	ns, n = perCall(1, nil, func() {
		for _, in := range fleet {
			cache.Put(in.key, val)
		}
	})
	put("solvecache.put_ns", "ns", ns, n*len(fleet), each)
	ns, n = perCall(1, nil, func() {
		for _, in := range fleet {
			if _, ok := cache.Get(in.key); !ok {
				sink++
			}
		}
	})
	put("solvecache.get_ns", "ns", ns, n*len(fleet), each)
	adm := overload.NewAdmission(overload.AdmissionConfig{MaxConcurrent: 1})
	var admErr error
	ns, n = perCall(64, nil, func() {
		release, err := adm.Acquire(context.Background())
		if err != nil {
			admErr = err
			return
		}
		release()
	})
	if admErr != nil {
		return nil, fmt.Errorf("overload probe: %w", admErr)
	}
	put("overload.acquire_ns", "ns", ns, n, 1)

	// Ring.Pick needs shards the router has seen healthy, and only a
	// router's own probe marks them so: three stub shards that answer
	// /ready stand in.
	ready := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	var urls []string
	for i := 0; i < numShards; i++ {
		stub := httptest.NewServer(ready)
		defer stub.Close()
		urls = append(urls, stub.URL)
	}
	rt, err := router.New(router.Config{Shards: urls, HealthInterval: time.Hour})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if picked, _ := rt.Ring().Pick(fleet[0].key); len(picked) == numShards {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("router probe: stub shards never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
	ns, n = perCall(1, nil, func() {
		for _, in := range fleet {
			picked, _ := rt.Ring().Pick(in.key)
			sink += float64(len(picked))
		}
	})
	put("router.pick_ns", "ns", ns, n*len(fleet), each)

	// The shard's whole /solve handler on a cached key, no sockets.
	srv, err := neos.NewServerWith(neos.Config{MaxConcurrent: 1, CacheSize: 4096, Overload: neos.OverloadConfig{Enabled: true}})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	handler := srv.Handler()
	solveOnce := func(in *instance) int {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(in.body)))
		return rec.Code
	}
	hot := fleet[1] // 1deg-256-uncon: the cheapest fill
	if code := solveOnce(hot); code != http.StatusOK {
		return nil, fmt.Errorf("handler probe: first solve returned HTTP %d", code)
	}
	ns, n = perCall(16, nil, func() { sink += float64(solveOnce(hot)) })
	put("neos.handler_hit_us", "us", ns, n, 1e3)

	// resultstore and cas: commit and read an encoded response under
	// solve/<key>, as the shard's persist and /blob paths do.
	store, err := resultstore.Open(scratch, resultstore.Options{})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	defer store.Close()
	var storeErr error
	serial := 0
	payload := func() []byte {
		serial++
		b, _ := json.Marshal(neos.SolveResponse{Status: "optimal", Objective: float64(serial),
			Variables: map[string]float64{"n_atm": 104, "n_ocn": 24, "n_ice": 89, "n_lnd": 15, "T": 410.623}})
		return b
	}
	var keys []string
	ns, n = perCall(8, nil, func() {
		key := fmt.Sprintf("solve/%064x", serial)
		if _, err := store.Commit(key, payload(), nil); err != nil {
			storeErr = err
		}
		keys = append(keys, key)
	})
	put("resultstore.commit_us", "us", ns, n, 1e3)
	next := 0
	ns, n = perCall(8, nil, func() {
		if _, _, err := store.HeadValue(keys[next%len(keys)]); err != nil {
			storeErr = err
		}
		next++
	})
	put("resultstore.read_us", "us", ns, n, 1e3)
	ns, n = perCall(8, nil, func() {
		if _, err := store.CAS().Put(payload()); err != nil {
			storeErr = err
		}
	})
	put("cas.put_us", "us", ns, n, 1e3)
	if storeErr != nil {
		return nil, fmt.Errorf("store probe: %w", storeErr)
	}
	if math.IsNaN(sink) {
		return nil, fmt.Errorf("layer probes produced NaN")
	}
	return out, nil
}
