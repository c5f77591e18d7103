package neos

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hslb/internal/clock"
	"hslb/internal/jobstore"
)

// boundModel(n) is a one-variable model whose optimum is n — trivially
// solvable, so end-to-end tests can run the real MINLP pipeline.
func boundModel(n int) string {
	return "var x integer >= 1 <= " + strconv.Itoa(n) + "; maximize total: x;"
}

// TestWorkerEndToEnd runs one real pull-loop node against a server with no
// local workers: lease → real MINLP solve → complete, for several jobs, then
// a clean drain.
func TestWorkerEndToEnd(t *testing.T) {
	_, _, c := newServerWith(t, Config{
		MaxConcurrent: 2,
		AsyncWorkers:  -1,
		LeaseTTL:      2 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	w, err := NewWorker(c, WorkerConfig{ID: "node-a", BaseBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = w.Run(ctx) }()

	want := map[int64]float64{}
	for n := 3; n <= 5; n++ {
		id, err := c.Submit(ctx, &SolveRequest{Model: boundModel(n)})
		if err != nil {
			t.Fatal(err)
		}
		want[id] = float64(n)
	}
	for id, obj := range want {
		jr := waitTerminal(t, c, id, 60*time.Second)
		if jr.Status != JobDone || jr.Result == nil || jr.Result.Objective != obj {
			t.Fatalf("job %d = %+v, want done with objective %v", id, jr, obj)
		}
	}
	cancel()
	wg.Wait()
	if st := w.Stats(); st.Completed != 3 || st.LeasesLost != 0 || st.Released != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWorkerDrainReleasesLease stops a worker mid-solve with no drain
// grace: the lease must be handed back immediately without consuming the
// attempt.
func TestWorkerDrainReleasesLease(t *testing.T) {
	_, _, c := newServerWith(t, Config{
		MaxConcurrent: 2,
		AsyncWorkers:  -1,
		LeaseTTL:      5 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	solving := make(chan struct{})
	w, err := NewWorker(c, WorkerConfig{
		ID:          "drainer",
		BaseBackoff: 5 * time.Millisecond,
		DrainGrace:  -1,
		SolveFn: func(sctx context.Context, req *SolveRequest) *SolveResponse {
			close(solving)
			<-sctx.Done() // solve "runs" until the drain cancels it
			return &SolveResponse{Status: "deadline"}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = w.Run(ctx) }()

	id, err := c.Submit(ctx, &SolveRequest{Model: boundModel(4)})
	if err != nil {
		t.Fatal(err)
	}
	<-solving
	cancel() // SIGTERM
	wg.Wait()
	if st := w.Stats(); st.Released != 1 || st.Completed != 0 {
		t.Fatalf("stats = %+v, want exactly one release", st)
	}
	// Release did not consume the attempt: the next node starts at 1.
	g, _, err := c.LeaseWork(context.Background(), "next", 0)
	if err != nil || g == nil {
		t.Fatalf("re-lease = (%v, %v)", g, err)
	}
	if g.JobID != id || g.Attempt != 1 {
		t.Fatalf("re-leased grant = %+v, want job %d attempt 1", g, id)
	}
}

// TestWorkerDrainFinishesWithinGrace stops a worker mid-solve whose solve
// finishes inside the drain grace: the result must still be reported.
func TestWorkerDrainFinishesWithinGrace(t *testing.T) {
	_, _, c := newServerWith(t, Config{
		MaxConcurrent: 2,
		AsyncWorkers:  -1,
		LeaseTTL:      5 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	solving := make(chan struct{})
	release := make(chan struct{})
	w, err := NewWorker(c, WorkerConfig{
		ID:          "finisher",
		BaseBackoff: 5 * time.Millisecond,
		DrainGrace:  30 * time.Second,
		SolveFn: func(sctx context.Context, req *SolveRequest) *SolveResponse {
			close(solving)
			<-release
			return &SolveResponse{Status: "optimal", Objective: 4}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = w.Run(ctx) }()

	id, err := c.Submit(ctx, &SolveRequest{Model: boundModel(4)})
	if err != nil {
		t.Fatal(err)
	}
	<-solving
	cancel()       // SIGTERM arrives mid-solve…
	close(release) // …and the solve finishes shortly after
	wg.Wait()
	if st := w.Stats(); st.Completed != 1 || st.Released != 0 {
		t.Fatalf("stats = %+v, want the drained solve completed", st)
	}
	jr := waitTerminal(t, c, id, 10*time.Second)
	if jr.Status != JobDone || jr.Result == nil || jr.Result.Objective != 4 {
		t.Fatalf("job = %+v, want done with the drained worker's result", jr)
	}
}

// TestWorkerSurvivesPanickingSolve: a model whose solve panics must not
// take the pull loop (and with it a whole hslbworker process) down. The
// panic is recovered and counted, the lease is left to lapse, the reaper
// requeues the job, and the same worker completes it on attempt 2.
func TestWorkerSurvivesPanickingSolve(t *testing.T) {
	s, _, c, clk := newFakeServer(t, Config{
		MaxConcurrent: 2,
		AsyncWorkers:  -1,
		LeaseTTL:      100 * time.Millisecond,
		JobTimeout:    -1,
		RetryBackoff:  time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var calls atomic.Int64
	w, err := NewWorker(c, WorkerConfig{
		ID:          "survivor",
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		SolveFn: func(sctx context.Context, req *SolveRequest) *SolveResponse {
			if calls.Add(1) == 1 {
				panic("model exploded the solver")
			}
			return &SolveResponse{Status: "optimal", Objective: 4}
		},
		clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = w.Run(ctx) }()

	id, err := c.Submit(ctx, &SolveRequest{Model: boundModel(4)})
	if err != nil {
		t.Fatal(err)
	}
	// Let the panicked attempt's lease lapse and the worker poll again, a
	// heartbeat's worth of virtual time per step, until the job is done.
	waitUntil(t, func() bool {
		if j, _ := s.store.Get(id); j.Status == jobstore.Done {
			return true
		}
		clk.Advance(25 * time.Millisecond)
		return false
	})
	jr := waitTerminal(t, c, id, 30*time.Second)
	if jr.Status != JobDone || jr.Attempts != 2 || jr.Result == nil || jr.Result.Objective != 4 {
		t.Fatalf("job = %+v, want done on attempt 2 with objective 4", jr)
	}
	cancel()
	wg.Wait()
	if st := w.Stats(); st.Panics != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want one recovered panic and one completion", st)
	}
	if m := s.metrics(); m.Jobs.LeaseReclaims != 1 {
		t.Fatalf("lease reclaims = %d, want 1 (the panicked attempt's lease)", m.Jobs.LeaseReclaims)
	}
}

// TestWorkerBackoffResetsAfterIdleLease is the regression test for the
// inflated-backoff bug: a 429 raised the error backoff, and a successful
// but idle (204) lease response never reset it — only a grant did — so a
// run of shed responses permanently inflated the error-path delay of an
// otherwise healthy idle worker. The scripted sequence is 429(hint), four
// hintless 429s (the error count reaches 5, a 640 ms backoff), 204 idle,
// 429(no hint): after the idle response the next error must back off from
// BaseBackoff again, not from the inflated delay.
func TestWorkerBackoffResetsAfterIdleLease(t *testing.T) {
	const (
		base = 20 * time.Millisecond
		hint = 300 * time.Millisecond
	)
	var mu sync.Mutex
	var calls []time.Time
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/work/lease" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		calls = append(calls, clk.Now())
		n := len(calls)
		mu.Unlock()
		switch n {
		case 1:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"error":"overloaded","retry_after_ms":%d}`, hint.Milliseconds())
		case 2, 3, 4, 5, 7:
			w.WriteHeader(http.StatusTooManyRequests)
		default: // healthy but idle
			w.Header().Set("X-Wait-Ms", "1")
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := NewWorker(NewClient(srv.URL), WorkerConfig{ID: "idle-node", BaseBackoff: base, clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = w.Run(ctx) }()

	// Step virtual time while the worker sleeps until the request after the
	// last 429, then stop the loop. Each sleep ends within one step of its
	// deadline, so the recorded gaps are the worker's delays.
	for {
		mu.Lock()
		n := len(calls)
		mu.Unlock()
		if n >= 8 {
			break
		}
		blockUntil(t, clk, 1)
		clk.Advance(time.Millisecond)
	}
	cancel()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	// The first 429's hint floors the first sleep (healthy-shed behavior,
	// unchanged): call 2 arrives no earlier than the hint.
	if gap := calls[1].Sub(calls[0]); gap < hint {
		t.Fatalf("hinted 429 backoff too short: %v < %v", gap, hint)
	}
	// The hintless 429s back off exponentially: the fourth sleeps 16·base.
	if gap := calls[5].Sub(calls[4]); gap < 16*base {
		t.Fatalf("backoff did not grow over consecutive 429s: slept %v after the fifth, want >= %v", gap, 16*base)
	}
	// The idle 204 after them must reset the backoff: the sleep after the
	// next (hintless) 429 starts over from BaseBackoff instead of
	// continuing from the inflated 32·base delay.
	if gap := calls[7].Sub(calls[6]); gap > 2*base {
		t.Fatalf("backoff not reset by idle lease response: slept %v after a hintless 429, want <= %v (2·base)", gap, 2*base)
	}
}

func waitTerminal(t *testing.T, c *Client, id int64, budget time.Duration) *JobResult {
	t.Helper()
	if raceEnabled {
		budget *= 4
	}
	deadline := time.Now().Add(budget)
	for {
		jr, err := c.Result(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Status == JobDone || jr.Status == JobFailed {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %v", id, jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
