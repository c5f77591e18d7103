package neos

import (
	"context"
	"encoding/json"
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
	_, hs, _ := newServerWith(t, Config{MaxConcurrent: 2, SolveTimeout: 30 * time.Second})
	start := time.Now()
	resp, out := postSolve(t, hs.URL, &SolveRequest{Model: pathologicalModel},
		map[string]string{"X-Request-Deadline-Ms": "100"})
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
	_, _, c := newServerWith(t, Config{MaxConcurrent: 2, SolveTimeout: 30 * time.Second})
	id, err := c.Submit(context.Background(), &SolveRequest{Model: pathologicalModel, TimeoutMs: 100})
	if err != nil {
		t.Fatal(err)
	}
	jr := waitForStatus(t, c, id, JobDone)
	if jr.Result == nil || jr.Result.Status != "deadline" {
		t.Fatalf("result = %+v, want deadline inside the job's own 100ms budget", jr.Result)
	}
}

func TestOverloadShedsWith429AndRetryAfter(t *testing.T) {
	s, hs, _ := newServerWith(t, Config{
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
	<-busy
	<-queued
	m := metricsSnapshot(t, hs.URL)
	if m.Overload == nil {
		t.Fatal("/metrics has no overload section on a protected server")
	}
	if m.Overload.Admission.ShedSaturated == 0 {
		t.Fatalf("overload metrics = %+v, want a saturation shed", m.Overload)
	}
}

func TestBrownoutServesDegradedAnswer(t *testing.T) {
	s, hs, _ := newServerWith(t, Config{
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
	resp, out := postSolve(t, hs.URL, &SolveRequest{Model: uniquePathologicalModel(0)}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status code = %d", resp.StatusCode)
	}
	if out.Quality != "degraded" || out.Status != "deadline" {
		t.Fatalf("response = %+v, want a degraded deadline answer", out)
	}
	if len(out.Variables) == 0 {
		t.Fatal("degraded answer carries no incumbent")
	}

	// An easy model that finishes inside the brownout budget is a
	// full-quality answer: served untagged and cached.
	resp, out = postSolve(t, hs.URL, &SolveRequest{Model: uniqueEasyModel(1)}, nil)
	if resp.StatusCode != http.StatusOK || out.Quality != "" || out.Status != "optimal" {
		t.Fatalf("easy brownout solve = %d %+v", resp.StatusCode, out)
	}
	if s.cache.Len() == 0 {
		t.Fatal("full-quality brownout answer was not cached")
	}

	m := metricsSnapshot(t, hs.URL)
	if m.Overload.Degraded == 0 || m.Overload.Breaker.State != "open" {
		t.Fatalf("overload metrics = %+v", m.Overload)
	}
}

func TestBreakerTripsOnPathologicalModelClass(t *testing.T) {
	s, hs, _ := newServerWith(t, Config{
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
		resp, out := postSolve(t, hs.URL, &SolveRequest{Model: uniquePathologicalModel(i)}, nil)
		if resp.StatusCode != http.StatusOK || out.Status != "deadline" {
			t.Fatalf("request %d: %d %+v", i, resp.StatusCode, out)
		}
	}
	waitUntil(t, func() bool { return s.guard.brk.State() == overload.Open })

	// The class is now short-circuited: no solver core burned, 429 back.
	start := time.Now()
	resp, _ := postSolve(t, hs.URL, &SolveRequest{Model: uniquePathologicalModel(99)}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status code = %d, want 429 from an open breaker", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("open breaker still took %v", elapsed)
	}
	m := metricsSnapshot(t, hs.URL)
	if m.Overload.Breaker.Trips != 1 || m.Overload.ShedBreaker == 0 {
		t.Fatalf("overload metrics = %+v", m.Overload)
	}
}

func TestBreakerIgnoresClientBudgetDeadlines(t *testing.T) {
	// A deadline forced by a short client budget must not count against
	// solver health: only full-budget deadlines trip the breaker.
	s, hs, _ := newServerWith(t, Config{
		MaxConcurrent: 2,
		SolveTimeout:  30 * time.Second,
		Overload: OverloadConfig{
			BreakerThreshold: 2,
		},
	})
	for i := 0; i < 4; i++ {
		resp, out := postSolve(t, hs.URL, &SolveRequest{Model: uniquePathologicalModel(i)},
			map[string]string{"X-Request-Deadline-Ms": "50"})
		if resp.StatusCode != http.StatusOK || out.Status != "deadline" {
			t.Fatalf("request %d: %d %+v", i, resp.StatusCode, out)
		}
	}
	if st := s.guard.brk.State(); st != overload.Closed {
		t.Fatalf("breaker state = %v after client-budget deadlines, want closed", st)
	}
}

func TestCacheHitsServedWhileBreakerOpen(t *testing.T) {
	s, hs, c := newServerWith(t, Config{
		MaxConcurrent: 2,
		Overload:      OverloadConfig{DegradedTimeout: -1},
	})
	if _, err := c.Solve(context.Background(), &SolveRequest{Model: miniModel}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.guard.brk.Record(false)
	}
	// The cached answer rides the first rung of the ladder: still a 200.
	resp, out := postSolve(t, hs.URL, &SolveRequest{Model: miniModelReformatted}, nil)
	if resp.StatusCode != http.StatusOK || out.Status != "optimal" || out.Quality != "" {
		t.Fatalf("cache hit under open breaker = %d %+v", resp.StatusCode, out)
	}
}

func TestSubmitShedsWhenJobQueueFull(t *testing.T) {
	_, hs, c := newServerWith(t, Config{
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
	m := metricsSnapshot(t, hs.URL)
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
	s, hs, _ := newServerWith(t, Config{
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
	<-busy
	if st := s.guard.adm.Stats(); st.ShedDeadline == 0 {
		t.Fatalf("admission stats = %+v, want a deadline shed", st)
	}
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

func metricsSnapshot(t *testing.T, url string) *Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return &m
}
