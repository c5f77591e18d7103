package neos

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hslb/internal/clock"
)

func fastRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
}

const tinyModel = `var x integer >= 1 <= 10;
minimize obj: 100 / x;
`

func TestClientRetries5xx(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= 2 {
			http.Error(w, "shard rebooting", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, &SolveResponse{Status: "optimal", Objective: 10})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy()
	out, err := c.Solve(context.Background(), &SolveRequest{Model: tinyModel})
	if err != nil {
		t.Fatalf("solve failed despite retry budget: %v", err)
	}
	if out.Status != "optimal" || atomic.LoadInt32(&calls) != 3 {
		t.Fatalf("status=%q calls=%d, want optimal after 3 calls", out.Status, calls)
	}
}

func TestClientRetryExhaustion(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "still down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy()
	_, err := c.Solve(context.Background(), &SolveRequest{Model: tinyModel})
	if err == nil {
		t.Fatal("no error after exhausting retries")
	}
	var se *ServerError
	if !errors.As(err, &se) || se.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err = %v, want wrapped 500 ServerError", err)
	}
	if !strings.Contains(se.Message, "still down") {
		t.Fatalf("server body lost: %q", se.Message)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

func TestClientNeverRetries4xx(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "bad JSON: unexpected token", http.StatusBadRequest)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy()
	_, err := c.Solve(context.Background(), &SolveRequest{Model: "nonsense"})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ServerError", err)
	}
	if se.StatusCode != http.StatusBadRequest || se.Retryable() {
		t.Fatalf("unexpected error classification: %+v", se)
	}
	if !strings.Contains(se.Message, "bad JSON") {
		t.Fatalf("plain-text error body not surfaced: %q", se.Message)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("4xx retried: %d calls", got)
	}
}

func TestServerErrorDecodesJSONBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "model already queued"})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy()
	_, err := c.Solve(context.Background(), &SolveRequest{Model: tinyModel})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ServerError", err)
	}
	if se.Message != "model already queued" {
		t.Fatalf("JSON error field not decoded: %q", se.Message)
	}
}

func TestClientRetriesTransportError(t *testing.T) {
	var calls int32
	var real http.RoundTripper = http.DefaultTransport
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, &SolveResponse{Status: "optimal"})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy()
	c.HTTP = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if atomic.AddInt32(&calls, 1) <= 2 {
			return nil, fmt.Errorf("connection reset by peer")
		}
		return real.RoundTrip(r)
	})}
	out, err := c.Solve(context.Background(), &SolveRequest{Model: tinyModel})
	if err != nil {
		t.Fatalf("transport errors not retried: %v", err)
	}
	if out.Status != "optimal" || atomic.LoadInt32(&calls) != 3 {
		t.Fatalf("status=%q calls=%d", out.Status, calls)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestClientRetryRespectsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Hour, MaxBackoff: time.Hour}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Solve(ctx, &SolveRequest{Model: tinyModel})
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("retry backoff ignored context cancellation")
	}
}

func TestWaitPollsToCompletion(t *testing.T) {
	_, _, c := newServerWith(t, Config{MaxConcurrent: 2})
	c.Retry = fastRetryPolicy()
	id, err := c.Submit(context.Background(), &SolveRequest{Model: tinyModel})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	jr, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Status != JobDone || jr.Result == nil || jr.Result.Status != "optimal" {
		t.Fatalf("job result %+v", jr)
	}
}

func TestWaitSurfacesFailedJob(t *testing.T) {
	_, _, c := newServerWith(t, Config{MaxConcurrent: 2})
	c.Retry = fastRetryPolicy()
	id, err := c.Submit(context.Background(), &SolveRequest{Model: tinyModel, Algorithm: "no-such-alg"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	jr, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("failed job should surface via Status, not error: %v", err)
	}
	if jr.Status != JobFailed {
		t.Fatalf("status = %v, want failed", jr.Status)
	}
	if jr.Error == "" && (jr.Result == nil || jr.Result.Error == "") {
		t.Fatalf("failed job carries no error detail: %+v", jr)
	}
}

// TestWaitHonorsRetryAfterOnShed is the regression test for waiters
// hammering a shedding server: a 429 from /result used to abort Wait with
// an error and ignored the server's Retry-After hint entirely. Wait must
// instead keep polling — the job is still queued — with the hint as the
// poll-delay floor, like Worker's lease loop.
func TestWaitHonorsRetryAfterOnShed(t *testing.T) {
	const hint = 250 * time.Millisecond
	var calls int32
	var afterShed atomic.Int64 // unix-nano of the poll following the shed
	var shedAt atomic.Int64
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch atomic.AddInt32(&calls, 1) {
		case 1:
			shedAt.Store(clk.Now().UnixNano())
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"error":"overloaded: solve queue full","retry_after_ms":%d}`, hint.Milliseconds())
		default:
			afterShed.CompareAndSwap(0, clk.Now().UnixNano())
			writeJSON(w, http.StatusOK, &JobResult{ID: 7, Status: JobDone,
				Result: &SolveResponse{Status: "optimal", Objective: 3}})
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy() // base 1ms: without the floor the re-poll lands long before the hint
	c.clock = clk
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var jr *JobResult
	var err error
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		jr, err = c.Wait(ctx, 7)
	}()
	sleepPastHint(t, clk, hint)
	<-waited
	if err != nil {
		t.Fatalf("Wait aborted on a shed response: %v", err)
	}
	if jr.Status != JobDone || jr.Result == nil || jr.Result.Objective != 3 {
		t.Fatalf("result after shed = %+v", jr)
	}
	if gap := time.Duration(afterShed.Load() - shedAt.Load()); gap < hint {
		t.Fatalf("Wait re-polled %v after the shed, ignoring the %v Retry-After hint", gap, hint)
	}
}

// TestDoRetryFloorsBackoffAtRetryAfter verifies the retry loop under every
// client call: a 503 carrying a Retry-After hint must not be retried before
// the hint elapses, even when the policy's exponential schedule (and its
// MaxBackoff cap) would retry much sooner.
func TestDoRetryFloorsBackoffAtRetryAfter(t *testing.T) {
	const hint = 250 * time.Millisecond
	var times []time.Time
	var mu sync.Mutex
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		times = append(times, clk.Now())
		n := len(times)
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":"draining","retry_after_ms":%d}`, hint.Milliseconds())
			return
		}
		writeJSON(w, http.StatusOK, &SolveResponse{Status: "optimal", Objective: 10})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy() // MaxBackoff 5ms — the hint must override it
	c.clock = clk
	var out *SolveResponse
	var err error
	solved := make(chan struct{})
	go func() {
		defer close(solved)
		out, err = c.Solve(context.Background(), &SolveRequest{Model: tinyModel})
	}()
	sleepPastHint(t, clk, hint)
	<-solved
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != "optimal" {
		t.Fatalf("status = %q", out.Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(times) != 2 {
		t.Fatalf("server saw %d calls, want 2", len(times))
	}
	if gap := times[1].Sub(times[0]); gap < hint {
		t.Fatalf("retried %v after a 503 with a %v Retry-After hint", gap, hint)
	}
}

// sleepPastHint moves clk through the client's sleep after a shed: to 1 ms
// before the hint, where the client must still be asleep, then past it.
func sleepPastHint(t *testing.T, clk *clock.Fake, hint time.Duration) {
	t.Helper()
	blockUntil(t, clk, 1)
	clk.Advance(hint - time.Millisecond)
	blockUntil(t, clk, 1)
	clk.Advance(time.Millisecond)
}

func TestWaitHonorsContext(t *testing.T) {
	// A job that never finishes: the server only has workers for real
	// requests, so point Wait at an id that stays queued by stubbing the
	// result endpoint.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, &JobResult{ID: 1, Status: JobQueued})
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Wait(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
