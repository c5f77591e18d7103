package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/neos"
	"hslb/internal/router"
)

func TestPercentileAndTypical(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(s, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 || mean(nil) != 0 {
		t.Error("no samples must read 0")
	}
	// Each group's median counts once per sample of the group.
	groups := map[string][]float64{"1deg-128": {4000}, "8th-8192": {300, 320, 340}, "8th-32768": {100, 900}}
	if got, want := typical(groups), (4000+3*320+2*500)/6.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("typical = %v, want %v", got, want)
	}
	if typical(nil) != 0 {
		t.Error("no groups must read 0")
	}
}

func TestEndToEndIsTheMedianOfTheRounds(t *testing.T) {
	// Three rounds of a mixed workload: three hits and one cold request each.
	// The second round met a stall: its wall time tripled, one hit took 50 ms.
	mk := func(setupS, wallS float64, hits []float64, failed int) round {
		return round{
			setupS: setupS,
			sec:    section{wallS: wallS},
			as: assessment{
				attempted: 4, failed: failed,
				latencyMS: map[string][]float64{classHit: hits, classCold: {200}},
				byRung:    map[string]map[string][]float64{classHit: {"8th-8192": hits}, classCold: {"8th-8192": {200}}},
			},
		}
	}
	rs := []round{mk(3, 0.10, []float64{1, 1, 1.6}, 0), mk(1, 0.30, []float64{1, 50, 1}, 0), mk(2, 0.12, []float64{0.9, 0.8, 1}, 1)}
	want := map[string]metric{
		"setup_s":       {Value: 2, Unit: "s", N: 3},
		"wall_s":        {Value: 0.12, Unit: "s", N: 3},
		"goodput_per_s": {Value: 3 / 0.12, Unit: "1/s", N: 11}, // 40, 13.3 and 25 a second
		"op_typical_ms": {Value: 1, Unit: "ms", N: 9},          // 1, 1 and 0.9: the rung's median
		"op_mean_ms":    {Value: 1.2, Unit: "ms", N: 9},        // 1.2, 17.3 and 0.9
	}
	got := endToEnd(classHit, rs)
	for name, w := range want {
		if g := got[name]; math.Abs(g.Value-w.Value) > 1e-9*w.Value || g.Unit != w.Unit || g.N != w.N {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("end-to-end metrics %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: [10,50) is covered once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent: only [90,100) counts
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 20, 4: 30, 5: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	var off *tracer
	off.setPhase("run")
	off.end(off.start("x", "", 1, 0), nil)
	if off.selected("x", "") != nil {
		t.Error("nil tracer recorded a span")
	}
	tr := newTracer()
	tr.setPhase("run")
	root := tr.start("pipeline.decision", "8th-8192", 7, 0)
	kid := tr.start("minlp.solve", "8th-8192", 7, root)
	tr.end(kid, map[string]float64{"nodes": 3})
	tr.end(root, nil)
	tr.setPhase("probe")
	tr.end(tr.start("minlp.solve", "1deg-128", -1, 0), nil)
	got := tr.selected("minlp.solve", "run")
	if len(got) != 1 || got[0].Parent != root || got[0].Op != 7 || got[0].Counts["nodes"] != 3 || got[0].End < got[0].Start {
		t.Errorf("run-phase solve span = %+v", got)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			Name string `json:"name"`
			Self int64  `json:"self_ns"`
		} `json:"spans"`
	}
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) != 3 {
		t.Fatalf("trace.json: %v, %d spans", err, len(doc.Spans))
	}
}

// fakeInstances returns n instances that differ only in key: enough for the
// sequence generators, which never look inside.
func fakeInstances(prefix string, n int) []*instance {
	out := make([]*instance, n)
	for i := range out {
		out[i] = &instance{key: prefix + string(rune('a'+i%26)) + strings.Repeat("x", i/26)}
	}
	return out
}

func TestMixedSequence(t *testing.T) {
	// The issue's mix: 6 000 hits over a 44-key pool, 110 cold, 110 warm.
	const hits = 6000
	pool := fakeInstances("p", 44)
	fresh := fakeInstances("f", 110)
	a, b := mixedSequence(42, pool, fresh, hits), mixedSequence(42, pool, fresh, hits)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different sequences")
	}
	if reflect.DeepEqual(a, mixedSequence(43, pool, fresh, hits)) {
		t.Error("another seed gave the same sequence")
	}
	counts := map[string]int{}
	solvedAt := map[*instance]int{}
	for _, in := range pool {
		solvedAt[in] = -1
	}
	warmed := map[*instance]bool{}
	for i, o := range a {
		counts[o.class]++
		switch o.class {
		case classCold:
			if _, dup := solvedAt[o.inst]; dup {
				t.Fatalf("op %d: cold request for a key already solved", i)
			}
			solvedAt[o.inst] = i
		case classWarm:
			at, ok := solvedAt[o.inst]
			if !ok || at >= i || at != o.after {
				t.Fatalf("op %d: warm request for a key solved at %d (ok=%v), after=%d", i, at, ok, o.after)
			}
			if warmed[o.inst] {
				t.Fatalf("op %d: key warm-asked twice", i)
			}
			warmed[o.inst] = true
		case classHit:
			if at, ok := solvedAt[o.inst]; !ok || at != -1 {
				t.Fatalf("op %d: hit outside the pool", i)
			}
		}
	}
	if counts[classHit] != 6000 || counts[classCold] != 110 || counts[classWarm] != 110 {
		t.Errorf("class counts %v, want 6000/110/110", counts)
	}

	// A pool of one forces the generator to move cold requests forward.
	tight := mixedSequence(1, pool[:1], fresh[:20], 5)
	have := 1
	for i, o := range tight {
		switch o.class {
		case classCold:
			have++
		case classWarm:
			if have--; have < 0 {
				t.Fatalf("op %d: warm request with nothing left to warm", i)
			}
		}
	}
}

func TestWorkloadSizesScaleWithSeconds(t *testing.T) {
	if table3Passes(15) != 2 || table3Passes(1) != 1 || table3Passes(60) != 8 {
		t.Errorf("table3Passes = %d, %d, %d at 15, 1, 60 s", table3Passes(15), table3Passes(1), table3Passes(60))
	}
	hits, coldSeeds := mixedSizes(15)
	if coldFitSeeds(15)*len(fleetRungs) != 55 || hitRequests(15) != 7500 || hits != 1800 || coldSeeds != 3 {
		t.Error("a round's fleet sizes drifted from the documented counts")
	}
	// No two rounds of a run share a slot, the probe pass's two slots lie past
	// them all, and the golden file keeps enough fit seeds for the longest run.
	c, err := loadCorpus(filepath.Join("golden", "corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 15, 20, 60} {
		for _, w := range workloadNames {
			if probeSlot(s) < rounds*slotsPerRound(w, s) {
				t.Errorf("probeSlot(%d) = %d is inside the slots of %s", s, probeSlot(s), w)
			}
		}
		if need := probeSlot(s) + 2; len(c.FitSeeds) < need {
			t.Errorf("golden/corpus.json keeps %d fit seeds, a %d s run needs %d", len(c.FitSeeds), s, need)
		}
	}
}

func TestGoldenLoaderAndDraw(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.json")
	if _, err := loadCorpus(path); err == nil {
		t.Error("a missing golden file must be an error")
	}
	want := corpusFile{MaxNodes: 1000, MaxGap: 2e-4, Scanned: 3,
		FitSeeds: []keptSeed{{1, map[string]string{"1deg": "aa", "0.125deg": "bb"}}, {3, map[string]string{"1deg": "cc", "0.125deg": "dd"}}},
		Rejected: []rejectedSeed{{2, "8th-8192 via library: 1327 nodes"}}}
	data, _ := json.Marshal(want)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadCorpus(path)
	if err != nil || !reflect.DeepEqual(*got, want) {
		t.Errorf("loadCorpus = %+v, %v", got, err)
	}
	for _, torn := range []string{"{", `{"fit_seeds": []}`} {
		if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCorpus(path); err == nil {
			t.Errorf("golden file %q must be an error", torn)
		}
	}

	// A seed always draws the committed file's fit seeds in the same order.
	c, err := loadCorpus(filepath.Join("golden", "corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	a, b, other := newDraw(c, 5), newDraw(c, 5), newDraw(c, 6)
	if !reflect.DeepEqual(a.order, b.order) || reflect.DeepEqual(a.order, other.order) {
		t.Error("the draw must depend on the seed and on nothing else")
	}

	// Models fitted today still match the digests of the file; a digest that
	// does not match counts as drift.
	insts, err := a.ladder(nil, fleetRungs[:1], 0)
	if err != nil || len(insts) != 1 || len(a.drifted) != 0 {
		t.Fatalf("ladder from the golden file: %v, %d instances, drift %v", err, len(insts), a.drifted)
	}
	c.FitSeeds[b.order[0]].Digests = map[string]string{"1deg": "stale"}
	for again := 0; again < 2; again++ { // a second set-up meets the same stale digest
		if _, err := b.ladder(nil, fleetRungs[:1], 0); err != nil || len(b.drifted) != 1 {
			t.Errorf("stale digest: err %v, drift %v, want one entry", err, b.drifted)
		}
	}
	if _, err := b.ladder(nil, fleetRungs[:1], len(c.FitSeeds)); err == nil {
		t.Error("a slot past the kept fit seeds must be an error")
	}
}

// smallLadder is the two smallest fleet rungs and the smallest constrained
// rung from one fit, with core.ExhaustiveSearch's answer to each.
func smallLadder(t *testing.T) ([]*instance, []answer) {
	t.Helper()
	insts, _, err := ladder(nil, []rung{fleetRungs[0], rung1deg}, 7)
	if err != nil {
		t.Fatal(err)
	}
	answers := make([]answer, len(insts))
	for i, in := range insts {
		d, err := core.ExhaustiveSearch(in.spec)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = answer{reported: d.PredictedTime, alloc: d.Alloc}
	}
	return insts, answers
}

func TestOracleAgreesWithExhaustiveSearch(t *testing.T) {
	insts, answers := smallLadder(t)
	for i, in := range insts {
		if rel := math.Abs(in.ref-answers[i].reported) / in.ref; rel > 1e-12 {
			t.Errorf("%s: oracle %.9f, exhaustive search %.9f", in.rung.name, in.ref, answers[i].reported)
		}
	}
	// The 1/8° branches — multiples of four, the seven-element ocean set —
	// at the largest sizes the exhaustive search's gate admits. The benchmark's
	// own 1/8° rungs start at 8192 nodes, past the gate; these are the same
	// code paths of the oracle with the same fitted curves.
	models, err := fitModels(nil, cesm.Res8thDeg, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []rung{mkRung(cesm.Res8thDeg, 4096, true), mkRung(cesm.Res8thDeg, 600, false)} {
		spec := r.spec(models)
		want, err := core.ExhaustiveSearch(spec)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got, err := exactOptimum(spec)
		if err != nil || math.Abs(got-want.PredictedTime)/got > 1e-12 {
			t.Errorf("%s: oracle %.9f (%v), exhaustive search %.9f", r.name, got, err, want.PredictedTime)
		}
	}
	if _, err := exactOptimum(core.Spec{Layout: cesm.Layout2}); err == nil {
		t.Error("the oracle must refuse a layout it does not model")
	}
}

func TestCheckRejectsWrongAnswers(t *testing.T) {
	insts, answers := smallLadder(t)
	con, good := insts[1], answers[1] // 1deg-128, constrained
	if v := check(con, good, 0); v.fail != "" || v.gap > 1e-12 || v.predErr <= 0 {
		t.Fatalf("the exact answer failed: %+v", v)
	}
	mutate := func(f func(*answer)) answer { a := good; f(&a); return a }
	cases := map[string]answer{
		"ice+lnd <= atm":  mutate(func(a *answer) { a.alloc.Ice = a.alloc.Atm }),
		"atm+ocn <= N":    mutate(func(a *answer) { a.alloc.Ocn = con.spec.TotalNodes }),
		"outside":         mutate(func(a *answer) { a.alloc.Ocn-- }), // odd: not in the ocean set
		"reported":        mutate(func(a *answer) { a.reported *= 1.01 }),
		"status":          {err: `status "deadline"`},
		"above the exact": mutate(func(a *answer) { a.alloc.Lnd, a.alloc.Ice = 1, 1; a.reported *= 50 }),
	}
	for want, a := range cases {
		if want == "above the exact" {
			a.reported, _ = core.PredictTotal(con.spec, a.alloc)
		}
		if v := check(con, a, 0); !strings.Contains(v.fail, want) {
			t.Errorf("%s: verdict %q", want, v.fail)
		}
	}
}

// TestResolveOnWarmCountsAsFailure drives the real closed loop, scrape and
// assessment against three fake shards and a fake router. The fake shards
// answer from a table, but the last one "forgets" to consult its peers: a
// warm request there runs its solver again. That invocation is one more than
// the section's cold requests, and must show up as a failed operation.
func TestResolveOnWarmCountsAsFailure(t *testing.T) {
	insts, answers := smallLadder(t)
	byBody := map[string][]byte{}
	for i, in := range insts {
		a := answers[i].alloc
		reply, _ := json.Marshal(neos.SolveResponse{Status: "optimal", Objective: answers[i].reported,
			Variables: map[string]float64{"n_atm": float64(a.Atm), "n_ocn": float64(a.Ocn), "n_ice": float64(a.Ice), "n_lnd": float64(a.Lnd)}})
		byBody[string(in.body)] = reply
	}
	type shard struct {
		solves atomic.Uint64
		mu     sync.Mutex
		cached map[string]bool
	}
	var shards [numShards]*shard
	f := &fleet{http: http.DefaultClient}
	var ringShards []*router.Shard
	for i := range shards {
		sh := &shard{cached: map[string]bool{}}
		shards[i] = sh
		mux := http.NewServeMux()
		mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			sh.mu.Lock()
			if !sh.cached[string(body)] {
				sh.solves.Add(1) // no peer consult: every miss is a solve
				sh.cached[string(body)] = true
			}
			sh.mu.Unlock()
			w.Write(byBody[string(body)])
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			var m neos.Metrics
			m.Solves.Count = sh.solves.Load()
			json.NewEncoder(w).Encode(m)
		})
		srv := httptest.NewServer(mux)
		defer srv.Close()
		f.shardURLs = append(f.shardURLs, srv.URL)
		ringShards = append(ringShards, &router.Shard{ID: srv.URL, URL: srv.URL})
	}
	f.ring = router.NewRing(ringShards, 0)
	front := http.NewServeMux()
	front.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var key string
		for _, in := range insts {
			if string(in.body) == string(body) {
				key = in.key
			}
		}
		resp, err := http.Post(f.home(key)+"/solve", "application/json", strings.NewReader(string(body)))
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		io.Copy(w, resp.Body)
	})
	front.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) { json.NewEncoder(w).Encode(router.Metrics{}) })
	frontSrv := httptest.NewServer(front)
	defer frontSrv.Close()
	f.routerURL = frontSrv.URL

	ops := []op{
		{class: classCold, inst: insts[0], after: -1},
		{class: classCold, inst: insts[1], after: -1},
		{class: classHit, inst: insts[0], after: -1},
		{class: classWarm, inst: insts[1], after: 1},
	}
	sec, err := f.section(context.Background(), nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := sec.fleet["neos.solver_invocations"]; got != 3 {
		t.Fatalf("the fake fleet counted %v solver invocations, want 3 (two cold, one re-solve)", got)
	}
	as := assess(sec)
	if as.attempted != 4 || as.failed != 1 || len(as.failures) != 1 || !strings.Contains(as.failures[0], "solved again") {
		t.Errorf("assessment %+v: the re-solve must be the one failure", as)
	}
	if len(as.latencyMS[classHit]) != 1 || len(as.latencyMS[classCold]) != 2 || len(as.latencyMS[classWarm]) != 1 || len(as.byRung[classCold]) != 2 {
		t.Errorf("latency samples per class: %v, per class and rung: %v", as.latencyMS, as.byRung)
	}

	// Without the re-solve the same section is clean.
	sec.fleet["neos.solver_invocations"] = 2
	if as := assess(sec); as.failed != 0 {
		t.Errorf("clean section failed: %v", as.failures)
	}
}
