package neos

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// These tests pin down the client's connection hygiene: every response
// body — including the ≥300 responses the retry loop swallows and the
// polling responses Wait discards — must be drained and closed, or the
// Transport cannot return the connection to its idle pool and every
// attempt dials a fresh one. A long-lived campaign polling a solve
// service through a NAT table notices the difference.

// countingServer wraps a handler in an httptest server that counts
// accepted TCP connections.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *int32) {
	t.Helper()
	var conns int32
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			atomic.AddInt32(&conns, 1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

// TestClientRetryReusesConnection: a 500,500,200 sequence must ride one
// keep-alive connection. If readServerError stopped draining/closing
// error bodies, each retry would dial anew and this counts 3.
func TestClientRetryReusesConnection(t *testing.T) {
	var calls int32
	srv, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= 2 {
			http.Error(w, `{"error":"shard rebooting"}`, http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, &SolveResponse{Status: "optimal", Objective: 10})
	}))

	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy()
	out, err := c.Solve(context.Background(), &SolveRequest{Model: tinyModel})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != "optimal" || atomic.LoadInt32(&calls) != 3 {
		t.Fatalf("status=%q calls=%d, want optimal after 3 calls", out.Status, calls)
	}
	if n := atomic.LoadInt32(conns); n != 1 {
		t.Fatalf("retry sequence used %d connections, want 1 (leaked error bodies break keep-alive)", n)
	}
}

// TestClientErrorBodyPastLimitReused: an oversized error body must still
// be drained past the read limit so the connection stays reusable for the
// next attempt.
func TestClientErrorBodyPastLimitReused(t *testing.T) {
	big := make([]byte, maxErrorBody+4096)
	for i := range big {
		big[i] = 'x'
	}
	var calls int32
	srv, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write(big)
			return
		}
		writeJSON(w, http.StatusOK, &SolveResponse{Status: "optimal"})
	}))

	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy()
	if _, err := c.Solve(context.Background(), &SolveRequest{Model: tinyModel}); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(conns); n != 1 {
		t.Fatalf("oversized error body cost %d connections, want 1", n)
	}
}

// TestWaitPollsReuseConnection: submit + every Result poll until the job
// completes must share one connection — Wait runs for the lifetime of a
// solve, the worst place to leak per-poll sockets.
func TestWaitPollsReuseConnection(t *testing.T) {
	s, err := NewServerWith(Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	srv, conns := countingServer(t, s.Handler())

	c := NewClient(srv.URL)
	c.Retry = fastRetryPolicy()
	ctx := context.Background()
	id, err := c.Submit(ctx, &SolveRequest{Model: tinyModel})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Status != JobDone {
		t.Fatalf("job finished %q: %s", jr.Status, jr.Error)
	}
	if n := atomic.LoadInt32(conns); n != 1 {
		t.Fatalf("submit+wait used %d connections, want 1 (poll responses must be drained)", n)
	}
}

// TestConcurrentSolvesParallelWorkers: the singleflight+cache contract
// must hold with several solve slots free — N identical concurrent
// requests run the solver once, and the answer matches a one-at-a-time
// server's bit for bit.
func TestConcurrentSolvesParallelWorkers(t *testing.T) {
	_, _, seqClient := newServerWith(t, Config{MaxConcurrent: 2})
	seqRes, err := seqClient.Solve(context.Background(), &SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}

	s, _, c := newServerWith(t, Config{MaxConcurrent: 4})
	ctx := context.Background()
	const n = 8
	var wg sync.WaitGroup
	results := make([]*SolveResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Solve(ctx, &SolveRequest{Model: miniModel})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Status != "optimal" || results[i].Objective != seqRes.Objective {
			t.Fatalf("request %d: (%q, %v), want (%q, %v) — concurrent solve changed the answer",
				i, results[i].Status, results[i].Objective, seqRes.Status, seqRes.Objective)
		}
		for k, v := range seqRes.Variables {
			if results[i].Variables[k] != v {
				t.Fatalf("request %d: %s = %v, want %v", i, k, results[i].Variables[k], v)
			}
		}
	}
	if m := s.metrics(); m.Solves.Count != 1 {
		t.Fatalf("solver invoked %d times for %d identical concurrent requests", m.Solves.Count, n)
	}
}
