package neos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"hslb/internal/overload"
)

// uniqueEasyModel returns a small solvable model whose canonical form is
// unique per i, so every request is a cache miss that reaches the solver.
func uniqueEasyModel(i int) string {
	return fmt.Sprintf(`
param N := 30;
var T >= 0 <= 10000;
var n1 integer >= 1 <= 30;
var n2 integer >= 1 <= 30;
minimize total: T;
subject to t1: %d / n1 + 5 <= T;
subject to t2: 80 / n2 + 3 <= T;
subject to cap: n1 + n2 <= N;
`, 100+i)
}

// uniquePathologicalModel is pathologicalModel with per-i coefficients:
// still a cache miss every time, still grinding through the near-tie
// ladder, so it reliably burns its whole solve budget.
func uniquePathologicalModel(i int) string {
	return hardLadderModel(120, i+1)
}

// postSolve issues a raw /solve so tests can inspect status codes and
// headers the typed client folds away.
func postSolve(t *testing.T, url string, req *SolveRequest, hdr map[string]string) (*http.Response, *SolveResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/solve", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out SolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, &out
}

func TestRequestDeadlineHeaderBoundsSolve(t *testing.T) {
	// Generous server-wide budget: the client's own 100ms deadline must stop
	// the pathological solve, not the 30s default.
	_, hs, _, clk := newFakeServer(t, Config{MaxConcurrent: 2, SolveTimeout: 30 * time.Second})
	start := time.Now()
	type reply struct {
		resp *http.Response
		out  *SolveResponse
	}
	replied := make(chan reply)
	go func() {
		resp, out := postSolve(t, hs.URL, &SolveRequest{Model: pathologicalModel},
			map[string]string{"X-Request-Deadline-Ms": "100"})
		replied <- reply{resp, out}
	}()
	blockUntil(t, clk, fakeBase+2) // the client's budget and the server's
	clk.Advance(100 * time.Millisecond)
	r := <-replied
	resp, out := r.resp, r.out
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status code = %d", resp.StatusCode)
	}
	if out.Status != "deadline" {
		t.Fatalf("status = %q, want deadline", out.Status)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("client deadline did not bound the solve: %v", elapsed)
	}
}

func TestRequestDeadlineHeaderRejectsGarbage(t *testing.T) {
	_, hs, _ := newServerWith(t, Config{MaxConcurrent: 2})
	resp, _ := postSolve(t, hs.URL, &SolveRequest{Model: miniModel},
		map[string]string{"X-Request-Deadline-Ms": "soon"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status code = %d, want 400", resp.StatusCode)
	}
}

func TestJobTimeoutMsFieldBoundsAsyncSolve(t *testing.T) {
	// One in-process worker: an idle second one would arm timers of its own.
	_, _, c, clk := newFakeServer(t, Config{MaxConcurrent: 2, AsyncWorkers: 1, SolveTimeout: 30 * time.Second})
	id, err := c.Submit(context.Background(), &SolveRequest{Model: pathologicalModel, TimeoutMs: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Armed: the job's budget, its heartbeat, its attempt timeout and the
	// server's solve budget.
	blockUntil(t, clk, fakeBase+4)
	clk.Advance(100 * time.Millisecond)
	jr := waitForStatus(t, c, id, JobDone)
	if jr.Result == nil || jr.Result.Status != "deadline" {
		t.Fatalf("result = %+v, want deadline inside the job's own 100ms budget", jr.Result)
	}
}

func TestOverloadShedsWith429AndRetryAfter(t *testing.T) {
	s, hs, _, clk := newFakeServer(t, Config{
		MaxConcurrent: 1,
		SolveTimeout:  2 * time.Second,
		Overload: OverloadConfig{
			MaxQueue:        1,
			DegradedTimeout: -1, // disable the brownout rung: saturation must shed
		},
	})
	// Occupy the only slot with a solve that burns its full 2s budget.
	busy := make(chan struct{})
	go func() {
		defer close(busy)
		postSolve(t, hs.URL, &SolveRequest{Model: uniquePathologicalModel(0)}, nil)
	}()
	waitUntil(t, func() bool { return s.guard.adm.Stats().Admitted == 1 })
	blockUntil(t, clk, fakeBase+1) // the busy solve's budget

	// Fill the single queue slot.
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		postSolve(t, hs.URL, &SolveRequest{Model: uniqueEasyModel(1)}, nil)
	}()
	waitUntil(t, func() bool { return s.guard.adm.QueueLen() == 1 })

	// The next arrival is shed: 429 with a Retry-After hint.
	resp, _ := postSolve(t, hs.URL, &SolveRequest{Model: uniqueEasyModel(2)}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status code = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	clk.Advance(2 * time.Second) // the busy solve's budget runs out; the queued one solves
	<-busy
	<-queued
	m := s.metrics()
	if m.Overload == nil {
		t.Fatal("/metrics has no overload section on a protected server")
	}
	if m.Overload.Admission.ShedSaturated == 0 {
		t.Fatalf("overload metrics = %+v, want a saturation shed", m.Overload)
	}
}

func TestBrownoutServesDegradedAnswer(t *testing.T) {
	s, clk := newFakeCore(t, Config{
		MaxConcurrent: 2,
		SolveTimeout:  30 * time.Second,
		Overload: OverloadConfig{
			DegradedTimeout: 100 * time.Millisecond,
		},
	})
	// Trip the breaker by hand: the service must now walk the ladder.
	for i := 0; i < 5; i++ {
		s.guard.brk.Record(false)
	}
	if st := s.guard.brk.State(); st != overload.Open {
		t.Fatalf("breaker state = %v, want open", st)
	}

	// A pathological model cannot finish inside the 100ms brownout budget:
	// the rounding incumbent comes back tagged degraded.
	out, err := solveAdvancing(t, s, clk, context.Background(), &SolveRequest{Model: uniquePathologicalModel(0)}, fakeBase+1, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("refused: %v", err)
	}
	if out.Quality != "degraded" || out.Status != "deadline" {
		t.Fatalf("response = %+v, want a degraded deadline answer", out)
	}
	if len(out.Variables) == 0 {
		t.Fatal("degraded answer carries no incumbent")
	}

	// An easy model that finishes inside the brownout budget is a
	// full-quality answer: served untagged and cached.
	out, err = s.solve(context.Background(), &SolveRequest{Model: uniqueEasyModel(1)}, true)
	if err != nil || out.Quality != "" || out.Status != "optimal" {
		t.Fatalf("easy brownout solve = %v %+v", err, out)
	}
	if s.cache.Len() == 0 {
		t.Fatal("full-quality brownout answer was not cached")
	}

	m := s.metrics()
	if m.Overload.Degraded == 0 || m.Overload.Breaker.State != "open" {
		t.Fatalf("overload metrics = %+v", m.Overload)
	}
}

func TestBreakerTripsOnPathologicalModelClass(t *testing.T) {
	s, clk := newFakeCore(t, Config{
		MaxConcurrent: 2,
		SolveTimeout:  100 * time.Millisecond,
		Overload: OverloadConfig{
			BreakerThreshold: 2,
			BreakerCooldown:  time.Minute,
			DegradedTimeout:  -1,
		},
	})
	// Two consecutive full-budget deadlines trip the breaker.
	for i := 0; i < 2; i++ {
		out, err := solveAdvancing(t, s, clk, context.Background(), &SolveRequest{Model: uniquePathologicalModel(i)}, fakeBase+1, 100*time.Millisecond)
		if err != nil || out.Status != "deadline" {
			t.Fatalf("request %d: %v %+v", i, err, out)
		}
	}
	waitUntil(t, func() bool { return s.guard.brk.State() == overload.Open })

	// The class is now short-circuited: no solver core burned, shed (429).
	start := time.Now()
	_, err := s.solve(context.Background(), &SolveRequest{Model: uniquePathologicalModel(99)}, true)
	var shed shedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %v, want a shed (429) from an open breaker", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("open breaker still took %v", elapsed)
	}
	m := s.metrics()
	if m.Overload.Breaker.Trips != 1 || m.Overload.ShedBreaker == 0 {
		t.Fatalf("overload metrics = %+v", m.Overload)
	}
}

func TestBreakerIgnoresClientBudgetDeadlines(t *testing.T) {
	// A deadline forced by a short client budget must not count against
	// solver health: only full-budget deadlines trip the breaker.
	s, clk := newFakeCore(t, Config{
		MaxConcurrent: 2,
		SolveTimeout:  30 * time.Second,
		Overload: OverloadConfig{
			BreakerThreshold: 2,
		},
	})
	for i := 0; i < 4; i++ {
		ctx, cancel := clk.WithTimeout(context.Background(), 50*time.Millisecond)
		// Armed: the client budget and the solve's own budget.
		out, err := solveAdvancing(t, s, clk, ctx, &SolveRequest{Model: uniquePathologicalModel(i)}, fakeBase+2, 50*time.Millisecond)
		cancel()
		if err != nil || out.Status != "deadline" {
			t.Fatalf("request %d: %v %+v", i, err, out)
		}
	}
	if st := s.guard.brk.State(); st != overload.Closed {
		t.Fatalf("breaker state = %v after client-budget deadlines, want closed", st)
	}
}

func TestCacheHitsServedWhileBreakerOpen(t *testing.T) {
	s := newCore(t, Config{
		MaxConcurrent: 2,
		Overload:      OverloadConfig{DegradedTimeout: -1},
	}, nil)
	if _, err := s.solve(context.Background(), &SolveRequest{Model: miniModel}, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.guard.brk.Record(false)
	}
	// The cached answer rides the first rung of the ladder: still served.
	out, err := s.solve(context.Background(), &SolveRequest{Model: miniModelReformatted}, true)
	if err != nil || out.Status != "optimal" || out.Quality != "" {
		t.Fatalf("cache hit under open breaker = %v %+v", err, out)
	}
}

func TestSubmitShedsWhenJobQueueFull(t *testing.T) {
	s, hs, c, _ := newFakeServer(t, Config{
		MaxConcurrent:  1,
		MaxPendingJobs: 1,
		SolveTimeout:   time.Second,
	})
	// First submission fills the only pending slot (the worker may claim
	// it, but running still counts as pending).
	if _, err := c.Submit(context.Background(), &SolveRequest{Model: uniquePathologicalModel(0)}); err != nil {
		t.Fatal(err)
	}
	body := `{"model":"var x >= 0 <= 9; maximize o: x;"}`
	resp, err := http.Post(hs.URL+"/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status code = %d, want 429 from a full job queue", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	m := s.metrics()
	if m.Overload.ShedJobs == 0 || m.Overload.MaxPendingJobs != 1 {
		t.Fatalf("overload metrics = %+v", m.Overload)
	}
}

func TestReadinessProbe(t *testing.T) {
	s, hs, _ := newServerWith(t, Config{
		MaxConcurrent: 2,
	})
	get := func(path string) int {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/ready"); got != http.StatusOK {
		t.Fatalf("/ready = %d on an idle server", got)
	}
	if got := get("/health"); got != http.StatusOK {
		t.Fatalf("/health = %d", got)
	}
	// An open breaker flips readiness but not liveness.
	for i := 0; i < 5; i++ {
		s.guard.brk.Record(false)
	}
	if got := get("/ready"); got != http.StatusServiceUnavailable {
		t.Fatalf("/ready = %d with the breaker open, want 503", got)
	}
	if got := get("/health"); got != http.StatusOK {
		t.Fatalf("/health = %d with the breaker open, want 200", got)
	}
	// Draining flips readiness too.
	s.guard.brk.Record(true) // irrelevant while open; reset not needed
	s.BeginDrain()
	if got := get("/ready"); got != http.StatusServiceUnavailable {
		t.Fatalf("/ready = %d while draining, want 503", got)
	}
	if got := get("/health"); got != http.StatusOK {
		t.Fatalf("/health = %d while draining, want 200", got)
	}
}

func TestDeadlineUnmeetableShedsUpFront(t *testing.T) {
	s, hs, _, clk := newFakeServer(t, Config{
		MaxConcurrent: 1,
		SolveTimeout:  2 * time.Second,
		Overload:      OverloadConfig{MaxQueue: 8},
	})
	// Teach the wait model that solves take ~1s, and occupy the slot.
	s.guard.adm.Observe(time.Second)
	busy := make(chan struct{})
	go func() {
		defer close(busy)
		postSolve(t, hs.URL, &SolveRequest{Model: uniquePathologicalModel(0)}, nil)
	}()
	waitUntil(t, func() bool { return s.guard.adm.Stats().Admitted == 1 })
	blockUntil(t, clk, fakeBase+1) // the busy solve's budget

	// 100ms of budget against an estimated ~2s of queue wait + solve:
	// hopeless, shed immediately rather than admitted.
	start := time.Now()
	resp, _ := postSolve(t, hs.URL, &SolveRequest{Model: uniqueEasyModel(1)},
		map[string]string{"X-Request-Deadline-Ms": "100"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status code = %d, want 429 for an unmeetable deadline", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("unmeetable deadline took %v to shed", elapsed)
	}
	clk.Advance(2 * time.Second)
	<-busy
	if st := s.guard.adm.Stats(); st.ShedDeadline == 0 {
		t.Fatalf("admission stats = %+v, want a deadline shed", st)
	}
}

// TestAsyncAttemptHoldsASolverSlot: admission's slots are the solver
// slots, so an async attempt holding the only one is a busy core to /solve.
// A request with a 100 ms propagated deadline waits in the queue for it and
// is shed with 429 and Retry-After when its deadline passes, instead of
// waiting out the async solve for a late "deadline" answer.
func TestAsyncAttemptHoldsASolverSlot(t *testing.T) {
	s, hs, c, clk := newFakeServer(t, Config{MaxConcurrent: 1, SolveTimeout: 300 * time.Millisecond})
	submitJob(t, c, uniquePathologicalModel(0))
	// A probe whose context is already done takes a free slot on the fast
	// path, so it is refused only while the async attempt holds the slot.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	waitUntil(t, func() bool {
		release, err := s.guard.adm.Acquire(done)
		if err == nil {
			release()
		}
		return err != nil
	})

	start := time.Now()
	replied := make(chan *http.Response)
	go func() {
		resp, _ := postSolve(t, hs.URL, &SolveRequest{Model: uniqueEasyModel(1)},
			map[string]string{"X-Request-Deadline-Ms": "100"})
		replied <- resp
	}()
	waitUntil(t, func() bool { return s.guard.adm.QueueLen() == 1 })
	clk.Advance(100 * time.Millisecond) // the request's deadline passes while it waits
	resp := <-replied
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status code = %d, Retry-After %q; want 429 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("reply took %v, want under 0.5s", elapsed)
	}
}

// TestJobDeadlineWhileWaitingForASlotEndsTheJob: a job whose own
// timeout_ms passes while a /solve holds the only solver slot gets its
// terminal "deadline" answer on its first attempt, instead of being handed
// back and re-leased at once, round after round, with two WAL records each.
func TestJobDeadlineWhileWaitingForASlotEndsTheJob(t *testing.T) {
	s, hs, c, clk := newFakeServer(t, Config{MaxConcurrent: 1, SolveTimeout: 400 * time.Millisecond, DataDir: t.TempDir()})
	busy := make(chan struct{})
	go func() {
		defer close(busy)
		postSolve(t, hs.URL, &SolveRequest{Model: uniquePathologicalModel(0)}, nil)
	}()
	waitUntil(t, func() bool { return s.guard.adm.Stats().Admitted == 1 })

	id, err := c.Submit(context.Background(), &SolveRequest{Model: uniqueEasyModel(1), TimeoutMs: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Armed: the /solve's budget, then the job's own deadline, its lease
	// heartbeat and its attempt timeout.
	blockUntil(t, clk, fakeBase+4)
	clk.Advance(20 * time.Millisecond)
	jr := waitForStatus(t, c, id, JobDone)
	select {
	case <-busy:
		t.Fatal("the /solve ended before the job: the job never waited on a held slot")
	default:
	}
	if jr.Result == nil || jr.Result.Status != "deadline" || jr.Attempts != 1 {
		t.Fatalf("job = %+v, result %+v; want a deadline answer on attempt 1", jr, jr.Result)
	}
	// enqueue, lease, done
	if n := s.store.Records(); n > 3 {
		t.Fatalf("WAL holds %d records for one job, want 3", n)
	}
	clk.Advance(400 * time.Millisecond)
	<-busy
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
