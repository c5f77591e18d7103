package neos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hslb/internal/cesm"
	"hslb/internal/clock"
	"hslb/internal/core"
	"hslb/internal/jobstore"
	"hslb/internal/perf"
)

// miniModelReformatted is miniModel with comments, reordered statements and
// respelled numerals — a different byte stream, the same optimization
// problem, so it must hit the same cache entry.
const miniModelReformatted = `# same model, different text
param NODES := 3e1;
var n2 integer >= 1 <= 30;
var n1 integer >= 1 <= 30;
var T >= 0.0 <= 10000;
subject to cap: n2 + n1 <= NODES;
subject to t2: 3 + 80 / n2 <= T;
subject to t1: 5.0 + 100 / n1 <= T;
minimize total: T;
`

func newServerWith(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := NewServerWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, NewClient(hs.URL)
}

// newCore returns a server for cfg that tests drive through the core, with
// no listener: tr carries its shard-to-shard transfers.
func newCore(t *testing.T, cfg Config, tr transfer) *Server {
	t.Helper()
	s, err := newServer(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// fakeBase is how many timers a fresh fake-clocked server arms by itself:
// the reaper's ticker and the janitor's.
const fakeBase = 2

// newFakeServer is newServerWith on a clock.Fake: every solve budget,
// timeout, lease, backoff and background loop of the server, its job store
// and its in-process workers waits for the test to Advance the clock.
func newFakeServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client, *clock.Fake) {
	t.Helper()
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	cfg.clock = clk
	s, err := NewServerWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { advanceUntil(clk, func() { hs.Close(); s.Close() }) })
	return s, hs, NewClient(hs.URL), clk
}

// newFakeCore is newCore on a clock.Fake, with no peers and no in-process
// workers: the tests drive the core directly, and an idle worker polling an
// open breaker would arm timers of its own.
func newFakeCore(t *testing.T, cfg Config) (*Server, *clock.Fake) {
	t.Helper()
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	cfg.clock, cfg.AsyncWorkers = clk, -1
	s, err := newServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { advanceUntil(clk, func() { s.Close() }) })
	return s, clk
}

// advanceUntil runs f, advancing clk a second at a time while it blocks: a
// fake-clocked Close waits out an in-flight solve's budget or drain grace,
// which only Advance ends.
func advanceUntil(clk *clock.Fake, f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	for {
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
			clk.Advance(time.Second)
		}
	}
}

// blockUntil waits until n timers, tickers or contexts are armed on clk,
// failing the test after 5 s.
func blockUntil(t *testing.T, clk *clock.Fake, n int) {
	t.Helper()
	armed := make(chan struct{})
	go func() {
		clk.BlockUntil(n)
		close(armed)
	}()
	select {
	case <-armed:
	case <-time.After(5 * time.Second):
		t.Fatalf("fewer than %d timers armed within 5s", n)
	}
}

// solveAdvancing runs s.solve in the background, waits until armed timers
// are armed in all (the solve's budget among them), advances clk by d, and
// returns the solve's answer.
func solveAdvancing(t *testing.T, s *Server, clk *clock.Fake, ctx context.Context, req *SolveRequest, armed int, d time.Duration) (*SolveResponse, error) {
	t.Helper()
	type answer struct {
		resp *SolveResponse
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := s.solve(ctx, req, true)
		done <- answer{resp, err}
	}()
	blockUntil(t, clk, armed)
	clk.Advance(d)
	a := <-done
	return a.resp, a.err
}

func TestSolveCacheHit(t *testing.T) {
	s := newCore(t, Config{MaxConcurrent: 2}, nil)
	ctx := context.Background()

	first, err := s.solve(ctx, &SolveRequest{Model: miniModel}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Second request: equivalent model, reformatted source.
	second, err := s.solve(ctx, &SolveRequest{Model: miniModelReformatted}, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != "optimal" || second.Status != "optimal" {
		t.Fatalf("statuses = %q, %q", first.Status, second.Status)
	}
	if first.Objective != second.Objective {
		t.Fatalf("objectives differ: %v vs %v", first.Objective, second.Objective)
	}

	m := s.metrics()
	if m.Solves.Count != 1 {
		t.Fatalf("solver invoked %d times, want 1 (cache must absorb the second request)", m.Solves.Count)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", m.Cache)
	}
}

// TestFlightRechecksCache closes the herd's double solve. A request misses
// the cache just before the previous flight's leader fills it, and reaches
// flight.Do after that flight ended, so it leads a flight of its own. That
// flight answers from the cache instead of running the solver again, and
// its second look is not a second miss.
func TestFlightRechecksCache(t *testing.T) {
	s := newCore(t, Config{MaxConcurrent: 2}, nil)
	ctx := context.Background()
	late := &SolveRequest{Model: miniModel}
	key, parsed, err := requestKey(late)
	if err != nil {
		t.Fatal(err)
	}
	// The late request's outer lookup, as solve makes it: a miss.
	if _, ok := s.cache.Get(key); ok {
		t.Fatal("cache hit before any solve")
	}
	// The previous leader (an equivalent model, so the same key) solves and
	// fills the cache before the late request reaches the flight.
	first, err := s.solve(ctx, &SolveRequest{Model: miniModelReformatted}, true)
	if err != nil || first.Status != "optimal" {
		t.Fatalf("first solve = %+v, %v", first, err)
	}
	// The late request leads the key's next flight.
	got, err, shared := s.flight.Do(key, func() (*SolveResponse, error) {
		return s.fly(ctx, key, parsed, late, true)
	})
	if err != nil || shared {
		t.Fatalf("late flight: err %v, shared %v", err, shared)
	}
	m := s.metrics()
	if m.Solves.Count != 1 {
		t.Fatalf("solver invoked %d times, want 1: the late flight solved again", m.Solves.Count)
	}
	if got != first {
		t.Fatalf("late request answered %+v, want the cached %+v", got, first)
	}
	if m.Cache.Misses != 2 || m.Cache.Hits != 0 {
		t.Fatalf("cache stats = %+v, want the two outer misses and nothing else", m.Cache)
	}
}

func TestDifferentOptionsMissCache(t *testing.T) {
	s := newCore(t, Config{MaxConcurrent: 2}, nil)
	ctx := context.Background()
	if _, err := s.solve(ctx, &SolveRequest{Model: miniModel}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.solve(ctx, &SolveRequest{Model: miniModel, RelGap: 1e-3}, true); err != nil {
		t.Fatal(err)
	}
	if m := s.metrics(); m.Solves.Count != 2 {
		t.Fatalf("solver invoked %d times, want 2 (options are part of the key)", m.Solves.Count)
	}
}

// TestSingleflightConcurrentIdenticalSolves sends a herd of identical
// misses, larger than MaxConcurrent + MaxQueue, at a one-slot server: the
// herd coalesces before admission, so it costs one admission, one solve
// and no 429.
func TestSingleflightConcurrentIdenticalSolves(t *testing.T) {
	s := newCore(t, Config{MaxConcurrent: 1}, nil)
	ctx := context.Background()
	const n = 12 // > MaxConcurrent + the default MaxQueue of 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.solve(ctx, &SolveRequest{Model: miniModel}, true)
			if err == nil && res.Status != "optimal" {
				err = fmt.Errorf("status %q", res.Status)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if m := s.metrics(); m.Solves.Count != 1 {
		t.Fatalf("solver invoked %d times for %d identical concurrent requests", m.Solves.Count, n)
	}
	if st := s.guard.adm.Stats(); st.Admitted != 1 || st.ShedSaturated != 0 || st.ShedDeadline != 0 {
		t.Fatalf("admission stats = %+v, want exactly one admission and no shed", st)
	}
}

func TestFailedJobNon200(t *testing.T) {
	_, hs, c := newServerWith(t, Config{MaxConcurrent: 2})
	ctx := context.Background()
	id, err := c.Submit(ctx, &SolveRequest{Model: "var x nonsense;"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		jr, err := c.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Status == JobFailed {
			if jr.Error == "" {
				t.Fatalf("failed job has no error: %+v", jr)
			}
			break
		}
		if jr.Status == JobDone {
			t.Fatalf("unparseable model solved: %+v", jr)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v", jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The raw HTTP status must be non-200.
	resp, err := http.Get(hs.URL + "/result?id=" + fmt.Sprint(id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("/result for failed job = %d, want %d", resp.StatusCode, http.StatusUnprocessableEntity)
	}
	// No retries for deterministic failures.
	jr, _ := c.Result(ctx, id)
	if jr.Attempts != 1 {
		t.Fatalf("parse error retried: attempts = %d", jr.Attempts)
	}
}

// TestOversizedBodyRejected: every POST route reads its body through the
// one size limit and answers an oversized body 413.
func TestOversizedBodyRejected(t *testing.T) {
	_, hs, _ := newServerWith(t, Config{MaxConcurrent: 1})
	big := `{"model":"` + strings.Repeat("x", maxRequestBody+1) + `"}`
	for _, path := range []string{
		"/solve", "/submit", "/work/lease", "/work/renew", "/work/complete", "/work/fail",
		"/admin/peers", "/replicate/" + strings.Repeat("ab", 32),
	} {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body on %s = %d, want %d", path, resp.StatusCode, http.StatusRequestEntityTooLarge)
		}
	}
}

func TestJobsListing(t *testing.T) {
	_, hs, c := newServerWith(t, Config{MaxConcurrent: 2})
	ctx := context.Background()
	id, err := c.Submit(ctx, &SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, c, id, JobDone)

	resp, err := http.Get(hs.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/jobs = %d", resp.StatusCode)
	}
	var jobs []JobSummary
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != id || jobs[0].Status != JobDone {
		t.Fatalf("jobs = %+v", jobs)
	}

	// Status filter.
	resp2, err := http.Get(hs.URL + "/jobs?status=failed")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var none []JobSummary
	if err := json.NewDecoder(resp2.Body).Decode(&none); err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("failed filter returned %+v", none)
	}
	// Bad filter.
	resp3, err := http.Get(hs.URL + "/jobs?status=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus filter = %d", resp3.StatusCode)
	}
}

func waitForStatus(t *testing.T, c *Client, id int64, want JobStatus) *JobResult {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, err := c.Result(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Status == want {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %v waiting for %v", id, jr.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashRecoveryCompletesQueuedJob is the acceptance scenario: a server
// dies with work outstanding; a new server on the same -data-dir finishes
// it exactly once.
func TestCrashRecoveryCompletesQueuedJob(t *testing.T) {
	dir := t.TempDir()

	// Simulate the dying server's WAL: one job killed mid-run (running,
	// never finished) and one still queued behind it.
	store, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runningReq, _ := json.Marshal(&SolveRequest{Model: "var x integer >= 0 <= 9; maximize o: x;"})
	if _, err := store.Enqueue(runningReq, 3); err != nil {
		t.Fatal(err)
	}
	midRun, _, err := store.Lease("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if midRun.Status != jobstore.Running {
		t.Fatalf("mid-run status = %v", midRun.Status)
	}
	queuedReq, _ := json.Marshal(&SolveRequest{Model: miniModel})
	queued, err := store.Enqueue(queuedReq, 3)
	if err != nil {
		t.Fatal(err)
	}
	store.Close() // flushes; the "crash" is never marking midRun done

	// Restart: the new server must recover both jobs and finish them.
	s, _, c := newServerWith(t, Config{MaxConcurrent: 2, DataDir: dir})
	if s.Recovered() != 1 {
		t.Fatalf("recovered = %d, want 1 (the mid-run job)", s.Recovered())
	}
	done1 := waitForStatus(t, c, queued.ID, JobDone)
	if done1.Result == nil || done1.Result.Status != "optimal" {
		t.Fatalf("recovered queued job result: %+v", done1.Result)
	}
	done2 := waitForStatus(t, c, midRun.ID, JobDone)
	if done2.Result == nil || done2.Result.Status != "optimal" {
		t.Fatalf("recovered mid-run job result: %+v", done2.Result)
	}
	if done2.Result.Objective != 9 {
		t.Fatalf("mid-run objective = %v", done2.Result.Objective)
	}
	// Exactly once: the interrupted attempt counts, so the re-run is
	// attempt 2 and nothing is queued or running afterwards.
	if done2.Attempts != 2 {
		t.Fatalf("mid-run attempts = %d, want 2", done2.Attempts)
	}
	if m := s.metrics(); m.Jobs.QueueDepth != 0 || m.Jobs.Counts["running"] != 0 || m.Jobs.Counts["done"] != 2 {
		t.Fatalf("post-recovery jobs = %+v", m.Jobs)
	}
}

// TestDurableSubmitSurvivesRestart exercises the full server-side loop:
// submit against server A, kill A before it can run the job, boot server B
// on the same data dir, read the result from B.
func TestDurableSubmitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	// Server A: zero workers would be ideal, but the pool size is also the
	// solver bound; instead give A a long job queue head start by closing
	// it immediately after submit. Close drains workers, so the job may
	// complete on A or stay queued — both are valid crash points; either
	// way B must serve the result.
	a, err := NewServerWith(Config{MaxConcurrent: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ha := httptest.NewServer(a.Handler())
	ca := NewClient(ha.URL)
	id, err := ca.Submit(context.Background(), &SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	ha.Close()
	a.Close()

	_, _, cb := newServerWith(t, Config{MaxConcurrent: 1, DataDir: dir})
	jr := waitForStatus(t, cb, id, JobDone)
	if jr.Result == nil || jr.Result.Status != "optimal" {
		t.Fatalf("result after restart: %+v", jr)
	}
}

func TestAsyncJobUsesCache(t *testing.T) {
	s, _, c := newServerWith(t, Config{MaxConcurrent: 2})
	ctx := context.Background()
	if _, err := c.Solve(ctx, &SolveRequest{Model: miniModel}); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(ctx, &SolveRequest{Model: miniModelReformatted})
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, c, id, JobDone)
	if m := s.metrics(); m.Solves.Count != 1 {
		t.Fatalf("async path re-solved a cached model: count = %d", m.Solves.Count)
	}
}

func TestMetricsHistogram(t *testing.T) {
	s := newCore(t, Config{MaxConcurrent: 1}, nil)
	if _, err := s.solve(context.Background(), &SolveRequest{Model: miniModel}, true); err != nil {
		t.Fatal(err)
	}
	m := s.metrics()
	if m.Solves.Count != 1 || m.Solves.LatencySumSeconds <= 0 {
		t.Fatalf("solve stats = %+v", m.Solves)
	}
	bs := m.Solves.LatencyBuckets
	if len(bs) == 0 || bs[len(bs)-1].LE != "+Inf" || bs[len(bs)-1].Count != 1 {
		t.Fatalf("buckets = %+v", bs)
	}
	// Cumulative counts are monotone.
	for i := 1; i < len(bs); i++ {
		if bs[i].Count < bs[i-1].Count {
			t.Fatalf("bucket counts not cumulative: %+v", bs)
		}
	}
}

// hardLadderModel writes a k-component HSLB instance whose per-component
// costs are near-identical (1000, 1000.001, 1000.002, ...): the makespan
// ties force branch-and-bound to enumerate a huge frontier of equivalent
// splits, so an unbounded solve pins a core for a very long time while the
// rounding rescue dive still yields a feasible deadline incumbent. seed
// shifts the coefficients so distinct seeds are distinct cache keys.
func hardLadderModel(k, seed int) string {
	var b strings.Builder
	b.WriteString("var T >= 0 <= 1e12;\n")
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = fmt.Sprintf("n%d", i)
		fmt.Fprintf(&b, "var n%d integer >= 1 <= 1000000;\n", i)
	}
	b.WriteString("minimize obj: T;\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "subject to t%d: %.3f / n%d + %.6f <= T;\n",
			i, 1000.0+float64(seed)+float64(i)*0.001, i, 1e-6*float64(i))
	}
	fmt.Fprintf(&b, "subject to cap: %s <= 1000000;\n", strings.Join(names, " + "))
	return b.String()
}

// pathologicalModel is a model on which the solver crawls (minutes, not
// milliseconds). The server's SolveTimeout must stop it.
var pathologicalModel = hardLadderModel(120, 0)

func TestSolveTimeoutBoundsPathologicalModel(t *testing.T) {
	s, clk := newFakeCore(t, Config{MaxConcurrent: 2, SolveTimeout: 300 * time.Millisecond})
	ctx := context.Background()

	start := time.Now()
	out, err := solveAdvancing(t, s, clk, ctx, &SolveRequest{Model: pathologicalModel}, fakeBase+1, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("solve took %v, deadline did not bound it", elapsed)
	}
	if out.Status != "deadline" {
		t.Fatalf("status = %q, want deadline", out.Status)
	}
	if out.Error != "" {
		t.Fatalf("deadline is a degraded answer, not an error: %q", out.Error)
	}

	// Deadline results depend on the wall-clock budget, not just the
	// model, so they must not stick in the cache.
	if _, err := solveAdvancing(t, s, clk, ctx, &SolveRequest{Model: pathologicalModel}, fakeBase+1, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m := s.metrics()
	if m.Solves.Count != 2 {
		t.Fatalf("solver invoked %d times, want 2 (deadline results must not be cached)", m.Solves.Count)
	}
	if m.Cache.Size != 0 {
		t.Fatalf("cache size = %d, deadline result was cached", m.Cache.Size)
	}
}

// TestSolveTimeoutBoundsExactSearch: SolveTimeout bounds the exact search
// a nonconvex Table I model routes to as it bounds OA. The 1/8° 32 768-node
// sync-tolerance model takes the exact search about 0.3 s on a 2-CPU
// host; under a 50 ms budget it answers "deadline" within 200 ms, and the
// answer is not cached.
func TestSolveTimeoutBoundsExactSearch(t *testing.T) {
	perfs := map[cesm.Component]perf.Model{}
	for _, c := range cesm.OptimizedComponents {
		perfs[c] = cesm.TruthModel(cesm.Res8thDeg, c)
	}
	src, err := core.WriteAMPL(core.Spec{Resolution: cesm.Res8thDeg, Layout: cesm.Layout1, TotalNodes: 32768,
		Perf: perfs, SyncTol: 2, ConstrainOcean: true})
	if err != nil {
		t.Fatal(err)
	}
	s := newCore(t, Config{MaxConcurrent: 2, SolveTimeout: 50 * time.Millisecond}, nil)
	req := &SolveRequest{Model: src, BranchSOS: true, RelGap: 1e-4}
	for i := 0; i < 2; i++ {
		start := time.Now()
		out, err := s.solve(context.Background(), req, true)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
			t.Fatalf("solve took %v under a 50ms budget", elapsed)
		}
		if out.Status != "deadline" || out.Variables != nil {
			t.Fatalf("status %q with %d variables, want deadline with none", out.Status, len(out.Variables))
		}
	}
	if m := s.metrics(); m.Solves.Count != 2 || m.Cache.Size != 0 {
		t.Fatalf("%d solves, cache size %d: a deadline answer was cached", m.Solves.Count, m.Cache.Size)
	}
}

func TestTimedOutJobEventuallyCompletes(t *testing.T) {
	// The near-tied coefficients, with 13 components that cannot split the
	// 4000 nodes evenly, make branch-and-bound grind (about 400 nodes and
	// 60 ms on a 2-CPU Xeon), far longer than the test takes to fire the
	// 8ms per-attempt timeout on the fake clock, so attempt 1 is abandoned
	// mid-solve. The abandoned attempt's solver still warms the cache, so
	// a later attempt finishes in microseconds — inside its own 8ms, which
	// the test fires too. A retry that solved again would time out at every
	// attempt until MaxAttempts failed the job. The job must converge to
	// done, never run unbounded.
	const slowModel = `
param N := 4000;
var T >= 0 <= 100000;
var n1 integer >= 1 <= 4000;
var n2 integer >= 1 <= 4000;
var n3 integer >= 1 <= 4000;
var n4 integer >= 1 <= 4000;
var n5 integer >= 1 <= 4000;
var n6 integer >= 1 <= 4000;
var n7 integer >= 1 <= 4000;
var n8 integer >= 1 <= 4000;
var n9 integer >= 1 <= 4000;
var n10 integer >= 1 <= 4000;
var n11 integer >= 1 <= 4000;
var n12 integer >= 1 <= 4000;
var n13 integer >= 1 <= 4000;
minimize total: T;
subject to t1: 11000.001 / n1 + 0.000001 <= T;
subject to t2: 11000.002 / n2 + 0.000002 <= T;
subject to t3: 11000.003 / n3 + 0.000003 <= T;
subject to t4: 11000.004 / n4 + 0.000004 <= T;
subject to t5: 11000.005 / n5 + 0.000005 <= T;
subject to t6: 11000.006 / n6 + 0.000006 <= T;
subject to t7: 11000.007 / n7 + 0.000007 <= T;
subject to t8: 11000.008 / n8 + 0.000008 <= T;
subject to t9: 11000.009 / n9 + 0.000009 <= T;
subject to t10: 11000.010 / n10 + 0.000010 <= T;
subject to t11: 11000.011 / n11 + 0.000011 <= T;
subject to t12: 11000.012 / n12 + 0.000012 <= T;
subject to t13: 11000.013 / n13 + 0.000013 <= T;
subject to cap: n1 + n2 + n3 + n4 + n5 + n6 + n7 + n8 + n9 + n10 + n11 + n12 + n13 <= N;
`
	s, _, c, clk := newFakeServer(t, Config{
		MaxConcurrent: 2,
		AsyncWorkers:  1, // an idle second worker would arm timers of its own
		JobTimeout:    8 * time.Millisecond,
		MaxAttempts:   10,
		RetryBackoff:  20 * time.Millisecond,
	})
	id, err := c.Submit(context.Background(), &SolveRequest{Model: slowModel})
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 times out: armed are its solve's budget, its lease
	// heartbeat and its attempt timeout. Its solve runs on and fills the
	// cache.
	blockUntil(t, clk, fakeBase+3)
	clk.Advance(8 * time.Millisecond)
	job := func() jobstore.Job { j, _ := s.store.Get(id); return j }
	waitUntil(t, func() bool { return job().Status == jobstore.Queued })
	// The solve takes seconds under -race, longer than waitUntil allows.
	for deadline := time.Now().Add(60 * time.Second); s.metrics().Cache.Size == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned solve never filled the cache")
		}
	}
	// Step virtual time through each retry backoff and each later
	// attempt's 8ms timeout until the job ends.
	waitUntil(t, func() bool {
		if st := job().Status; st == jobstore.Done || st == jobstore.Failed {
			return true
		}
		clk.Advance(time.Millisecond)
		return false
	})
	jr := waitForStatus(t, c, id, JobDone)
	if jr.Attempts < 2 {
		t.Fatalf("attempts = %d, expected at least one timeout retry", jr.Attempts)
	}
	if jr.Result == nil || jr.Result.Status != "optimal" {
		t.Fatalf("result = %+v", jr.Result)
	}
}
