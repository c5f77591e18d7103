package neos

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hslb/internal/clock"
	"hslb/internal/jobstore"
)

// pullOnlyConfig is the config for tests that drive the queue exclusively
// through the pull-worker protocol.
func pullOnlyConfig() Config {
	return Config{
		MaxConcurrent: 2,
		AsyncWorkers:  -1,
		LeaseTTL:      200 * time.Millisecond,
		JobTimeout:    -1,
	}
}

func submitJob(t *testing.T, c *Client, model string) int64 {
	t.Helper()
	id, err := c.Submit(context.Background(), &SolveRequest{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestWorkProtocolLifecycle(t *testing.T) {
	s, _, c := newServerWith(t, pullOnlyConfig())
	ctx := context.Background()
	id := submitJob(t, c, miniModel)

	grant, _, err := c.LeaseWork(ctx, "node-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if grant == nil {
		t.Fatal("no grant for a queued job")
	}
	if grant.JobID != id || grant.Fence != 1 || grant.Attempt != 1 {
		t.Fatalf("grant = %+v", grant)
	}
	if grant.TTLMs != 200 {
		t.Fatalf("ttl = %dms, want server default 200", grant.TTLMs)
	}

	// A second poller finds nothing and gets a wait hint bounded by the
	// outstanding lease's expiry.
	second, wait, err := c.LeaseWork(ctx, "node-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if second != nil {
		t.Fatalf("second lease got job %d", second.JobID)
	}
	if wait <= 0 || wait > 200*time.Millisecond {
		t.Fatalf("wait hint = %v, want (0, 200ms]", wait)
	}

	if _, err := c.RenewWork(ctx, grant.JobID, grant.Fence, 0); err != nil {
		t.Fatal(err)
	}

	// Solve locally (what hslbworker does) and complete under the token.
	resp := ExecuteRequest(ctx, &SolveRequest{Model: miniModel}, 0)
	if resp.Status != "optimal" {
		t.Fatalf("local solve = %+v", resp)
	}
	dup, err := c.CompleteWork(ctx, grant.JobID, grant.Fence, resp)
	if err != nil || dup {
		t.Fatalf("complete = (%v, %v)", dup, err)
	}
	jr := waitForStatus(t, c, id, JobDone)
	if jr.Result == nil || jr.Result.Objective != resp.Objective {
		t.Fatalf("result = %+v", jr.Result)
	}

	// The remote result warmed the solve cache: a sync solve of the same
	// model must not invoke the solver.
	before := s.hist.snapshot().Count
	got, err := c.Solve(ctx, &SolveRequest{Model: miniModelReformatted})
	if err != nil {
		t.Fatal(err)
	}
	if got.Objective != resp.Objective {
		t.Fatalf("cache-warmed objective = %v, want %v", got.Objective, resp.Objective)
	}
	if after := s.hist.snapshot().Count; after != before {
		t.Fatalf("sync solve invoked the solver (%d -> %d) despite remote warm", before, after)
	}
}

func TestWorkLeaseValidation(t *testing.T) {
	s, hs, c := newServerWith(t, pullOnlyConfig())
	ctx := context.Background()

	// Empty worker_id is a 400.
	resp, err := http.Post(hs.URL+"/work/lease", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty worker_id = %d, want 400", resp.StatusCode)
	}

	// Requested TTLs are clamped to [1s, 10×LeaseTTL].
	submitJob(t, c, miniModel)
	grant, _, err := c.LeaseWork(ctx, "node-a", time.Hour)
	if err != nil || grant == nil {
		t.Fatalf("lease = (%v, %v)", grant, err)
	}
	if want := (10 * 200 * time.Millisecond).Milliseconds(); grant.TTLMs != want {
		t.Fatalf("clamped ttl = %dms, want %d", grant.TTLMs, want)
	}

	// A draining server stops granting leases with 503 + Retry-After, but
	// still accepts the in-flight complete. A single-attempt client: the
	// retryable 503 must surface now, not after a Retry-After backoff dance
	// that would eat the held lease's TTL.
	s.BeginDrain()
	oneShot := NewClient(hs.URL)
	oneShot.Retry = RetryPolicy{MaxAttempts: 1}
	_, _, err = oneShot.LeaseWork(ctx, "node-a", 0)
	var se *ServerError
	if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lease while draining = %v", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("draining 503 carries no Retry-After hint: %+v", se)
	}
	if _, err := c.CompleteWork(ctx, grant.JobID, grant.Fence,
		&SolveResponse{Status: "optimal", Objective: 1}); err != nil {
		t.Fatalf("complete while draining: %v", err)
	}
}

// TestWorkIdempotentComplete is the satellite acceptance test: a duplicate
// complete from a restarted worker with the same result hash is a no-op; a
// conflicting result with a stale token is rejected and never served.
func TestWorkIdempotentComplete(t *testing.T) {
	s, _, c := newServerWith(t, pullOnlyConfig())
	ctx := context.Background()
	id := submitJob(t, c, miniModel)

	grant, _, err := c.LeaseWork(ctx, "node-a", 0)
	if err != nil || grant == nil {
		t.Fatalf("lease = (%v, %v)", grant, err)
	}
	good := &SolveResponse{Status: "optimal", Objective: 42, Nodes: 7,
		Variables: map[string]float64{"T": 42}}
	if dup, err := c.CompleteWork(ctx, grant.JobID, grant.Fence, good); err != nil || dup {
		t.Fatalf("first complete = (%v, %v)", dup, err)
	}

	// The worker crashes after the server recorded the complete but before
	// it saw the 200, restarts, and replays the report: same job, now-stale
	// token, byte-identical result. Absorbed as a no-op.
	dup, err := c.CompleteWork(ctx, grant.JobID, grant.Fence, good)
	if err != nil {
		t.Fatalf("replayed complete rejected: %v", err)
	}
	if !dup {
		t.Fatal("replayed complete not flagged duplicate")
	}
	if n := s.dupCompletes.Load(); n != 1 {
		t.Fatalf("dupCompletes = %d, want 1", n)
	}

	// A zombie with a stale token and a conflicting result is rejected…
	evil := &SolveResponse{Status: "optimal", Objective: -1}
	if _, err := c.CompleteWork(ctx, grant.JobID, grant.Fence, evil); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("conflicting stale complete = %v, want ErrLeaseLost", err)
	}
	// …and its result is never served.
	jr := waitForStatus(t, c, id, JobDone)
	if jr.Result == nil || jr.Result.Objective != 42 {
		t.Fatalf("served result = %+v, want objective 42", jr.Result)
	}
	if st := s.store.LeaseStats(); st.StaleRejects == 0 {
		t.Fatal("conflicting complete not counted as stale reject")
	}
}

func TestWorkFailRetryReleaseSemantics(t *testing.T) {
	_, _, c, clk := newFakeServer(t, pullOnlyConfig())
	ctx := context.Background()
	id := submitJob(t, c, miniModel)

	// Attempt 1 fails retryably: the attempt is consumed.
	g1, _, err := c.LeaseWork(ctx, "node-a", 0)
	if err != nil || g1 == nil {
		t.Fatalf("lease 1 = (%v, %v)", g1, err)
	}
	if err := c.FailWork(ctx, g1.JobID, g1.Fence, "flaky", true); err != nil {
		t.Fatal(err)
	}

	// Attempt 2 is released (a draining worker): NOT consumed.
	g2 := leaseEventually(t, c, clk, "node-b")
	if g2.Attempt != 2 {
		t.Fatalf("attempt after retryable fail = %d, want 2", g2.Attempt)
	}
	if g2.Fence <= g1.Fence {
		t.Fatalf("fence not monotonic: %d then %d", g1.Fence, g2.Fence)
	}
	if err := c.ReleaseWork(ctx, g2.JobID, g2.Fence); err != nil {
		t.Fatal(err)
	}

	// The release rolled the attempt counter back.
	g3 := leaseEventually(t, c, clk, "node-c")
	if g3.Attempt != 2 {
		t.Fatalf("attempt after release = %d, want 2 again", g3.Attempt)
	}

	// Stale tokens are rejected on every fail variant.
	if err := c.FailWork(ctx, g3.JobID, g2.Fence, "zombie", true); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale retryable fail = %v, want ErrLeaseLost", err)
	}
	if err := c.ReleaseWork(ctx, g3.JobID, g1.Fence); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale release = %v, want ErrLeaseLost", err)
	}

	// Permanent failure terminates the job.
	if err := c.FailWork(ctx, g3.JobID, g3.Fence, "model is cursed", false); err != nil {
		t.Fatal(err)
	}
	jr := waitForStatus(t, c, id, JobFailed)
	if jr.Error != "model is cursed" {
		t.Fatalf("error = %q", jr.Error)
	}
}

// leaseEventually retries LeaseWork until a grant arrives, advancing the
// server's clock through each retry backoff or lease expiry it is told to
// wait for.
func leaseEventually(t *testing.T, c *Client, clk *clock.Fake, worker string) *WorkGrant {
	t.Helper()
	for i := 0; ; i++ {
		g, wait, err := c.LeaseWork(context.Background(), worker, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			return g
		}
		if i == 100 {
			t.Fatal("no lease after 100 waits")
		}
		clk.Advance(wait)
	}
}

// TestWorkLeaseExpiryReclaim kills a "worker" mid-solve (it never renews,
// never reports) and shows the reaper hands the job to the next node, whose
// result wins while the zombie's stale complete bounces.
func TestWorkLeaseExpiryReclaim(t *testing.T) {
	s, _, c, clk := newFakeServer(t, Config{
		MaxConcurrent: 2,
		AsyncWorkers:  -1,
		LeaseTTL:      100 * time.Millisecond,
		JobTimeout:    -1,
	})
	ctx := context.Background()
	id := submitJob(t, c, miniModel)

	dead, _, err := c.LeaseWork(ctx, "crashed", 0)
	if err != nil || dead == nil {
		t.Fatalf("lease = (%v, %v)", dead, err)
	}

	// The reaper (interval LeaseTTL/4) reclaims after expiry; the next
	// worker gets a fresh fence.
	next := leaseEventually(t, c, clk, "healthy")
	if next.JobID != id || next.Fence <= dead.Fence {
		t.Fatalf("reclaimed grant = %+v (dead fence %d)", next, dead.Fence)
	}
	if dup, err := c.CompleteWork(ctx, next.JobID, next.Fence,
		&SolveResponse{Status: "optimal", Objective: 7}); err != nil || dup {
		t.Fatalf("healthy complete = (%v, %v)", dup, err)
	}

	// The crashed worker wakes up as a zombie with a different answer.
	if _, err := c.CompleteWork(ctx, dead.JobID, dead.Fence,
		&SolveResponse{Status: "optimal", Objective: 666}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie complete = %v, want ErrLeaseLost", err)
	}
	jr := waitForStatus(t, c, id, JobDone)
	if jr.Result == nil || jr.Result.Objective != 7 {
		t.Fatalf("served result = %+v, want the healthy worker's 7", jr.Result)
	}

	// Lease health shows up on /metrics.
	m := s.metrics()
	if m.Jobs.LeaseReclaims == 0 {
		t.Fatal("metrics report zero lease reclaims")
	}
	if m.Jobs.StaleRejects == 0 {
		t.Fatal("metrics report zero stale rejects")
	}
}

// TestLocalWorkerPanicReclaimed routes the in-process async workers through
// the lease mechanism: a panicking solve leaves the job leased, the lease
// lapses, the reaper requeues it, and a healthy retry completes it.
func TestLocalWorkerPanicReclaimed(t *testing.T) {
	var calls atomic.Int64
	s, _, c, clk := newFakeServer(t, Config{
		MaxConcurrent: 2,
		AsyncWorkers:  2,
		LeaseTTL:      100 * time.Millisecond,
		JobTimeout:    -1,
		RetryBackoff:  time.Millisecond,
		solveHook: func(ctx context.Context, req *SolveRequest) *SolveResponse {
			if calls.Add(1) == 1 {
				panic("solver exploded")
			}
			return &SolveResponse{Status: "optimal", Objective: 3}
		},
	})
	id := submitJob(t, c, miniModel)
	// Let the panicked attempt's lease lapse, a reaper interval of virtual
	// time per step, until the retry has completed the job.
	waitUntil(t, func() bool {
		if j, _ := s.store.Get(id); j.Status == jobstore.Done {
			return true
		}
		clk.Advance(25 * time.Millisecond)
		return false
	})
	jr := waitForStatus(t, c, id, JobDone)
	if jr.Result == nil || jr.Result.Objective != 3 {
		t.Fatalf("result = %+v", jr.Result)
	}
	if jr.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one panicked, one clean)", jr.Attempts)
	}
	if n := s.workerPanics.Load(); n == 0 {
		t.Fatal("panic not counted")
	}
	if m := s.metrics(); m.Jobs.WorkerPanics == 0 || m.Jobs.LeaseReclaims == 0 {
		t.Fatalf("metrics = panics %d, reclaims %d; want both > 0",
			m.Jobs.WorkerPanics, m.Jobs.LeaseReclaims)
	}
}

// TestLocalAttemptOutlivesLeaseTTL: an in-process attempt that runs four
// lease TTLs, with JobTimeout disabled, keeps its lease by heartbeat and
// finishes on its first attempt. Without renewal the lease lapses mid-solve,
// the reaper re-runs the job, and every attempt meets the same fate until
// the job fails.
func TestLocalAttemptOutlivesLeaseTTL(t *testing.T) {
	var calls atomic.Int64
	var clk *clock.Fake
	s, _, c, clk := newFakeServer(t, Config{
		MaxConcurrent: 2,
		AsyncWorkers:  1,
		LeaseTTL:      100 * time.Millisecond,
		JobTimeout:    -1,
		RetryBackoff:  time.Millisecond,
		solveHook: func(ctx context.Context, req *SolveRequest) *SolveResponse {
			calls.Add(1)
			_ = clk.Sleep(ctx, 400*time.Millisecond)
			return &SolveResponse{Status: "optimal", Objective: 3}
		},
	})
	id := submitJob(t, c, miniModel)
	// Armed: the heartbeat's ticker and the solve's 400 ms. Step virtual
	// time one heartbeat at a time, each step waiting for the renewal it
	// fired, until the solve ends.
	blockUntil(t, clk, fakeBase+2)
	for {
		j, _ := s.store.Get(id)
		if j.Status == jobstore.Done {
			break
		}
		clk.Advance(100 * time.Millisecond / 3)
		waitUntil(t, func() bool {
			cur, _ := s.store.Get(id)
			return cur.Status == jobstore.Done || cur.LeaseExpiry.After(j.LeaseExpiry)
		})
	}
	jr := waitForStatus(t, c, id, JobDone)
	if jr.Attempts != 1 || calls.Load() != 1 {
		t.Fatalf("attempts = %d, solves = %d; want 1 and 1", jr.Attempts, calls.Load())
	}
	if m := s.metrics(); m.Jobs.LeaseReclaims != 0 {
		t.Fatalf("lease reclaims = %d, want 0: the lease lapsed mid-solve", m.Jobs.LeaseReclaims)
	}
}

// TestWorkLeaseBreakerOpenSheds verifies a tripped breaker sheds lease
// polls with 429 + Retry-After instead of handing out attempts.
func TestWorkLeaseBreakerOpenSheds(t *testing.T) {
	s, _, c := newServerWith(t, Config{
		MaxConcurrent: 2,
		AsyncWorkers:  -1,
		LeaseTTL:      200 * time.Millisecond,
		Overload:      OverloadConfig{BreakerThreshold: 1},
	})
	// Trip the breaker directly.
	s.guard.brk.Record(false)
	submitJob(t, c, miniModel)
	_, _, err := c.LeaseWork(context.Background(), "node-a", 0)
	var se *ServerError
	if !errors.As(err, &se) || se.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("lease with open breaker = %v, want 429", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("429 carries no Retry-After: %+v", se)
	}
}

// TestAsyncAttemptJoiningRefusedFlightIsReleased: an async attempt that
// joins a /solve flight whose leader was refused — answered degraded, or
// shed — never finishes with that answer. The job goes back to the queue
// without using up the attempt (MaxAttempts 1 would fail it otherwise),
// re-runs as its own flight's leader, and ends done at full quality. Its
// solver slot is taken outside the /solve admission queue.
func TestAsyncAttemptJoiningRefusedFlightIsReleased(t *testing.T) {
	for _, refusal := range []struct {
		name string
		resp *SolveResponse
		err  error
	}{
		{"degraded", &SolveResponse{Status: "deadline", Quality: "degraded", Objective: 99}, nil},
		{"shed", nil, shedError("solve queue full")},
	} {
		t.Run(refusal.name, func(t *testing.T) {
			var (
				srv   *Server
				calls atomic.Int64
			)
			s, _, c := newServerWith(t, Config{
				MaxConcurrent: 1,
				MaxAttempts:   1,
				solveHook: func(ctx context.Context, req *SolveRequest) *SolveResponse {
					calls.Add(1)
					return srv.solveJob(ctx, req)
				},
			})
			srv = s
			key, err := RequestKey(&SolveRequest{Model: miniModel})
			if err != nil {
				t.Fatal(err)
			}

			// Lead the key's flight as a refused /solve leader would, and hold
			// it until the job's first attempt has joined.
			leading := make(chan struct{})
			proceed := make(chan struct{})
			go s.flight.Do(key, func() (*SolveResponse, error) {
				close(leading)
				<-proceed
				return refusal.resp, refusal.err
			})
			<-leading
			id := submitJob(t, c, miniModel)
			waitUntil(t, func() bool { return s.flight.Joined(key) == 1 })
			close(proceed)

			jr := waitForStatus(t, c, id, JobDone)
			if jr.Result == nil || jr.Result.Status != "optimal" || jr.Result.Quality != "" {
				t.Fatalf("job finished with %+v, want a full-quality answer", jr.Result)
			}
			if jr.Attempts != 1 {
				t.Fatalf("attempts = %d, want 1: the refused flight used up an attempt", jr.Attempts)
			}
			if n := calls.Load(); n != 2 {
				t.Fatalf("solve attempts = %d, want 2 (one handed back, one solved)", n)
			}
			if st := s.guard.adm.Stats(); st.Admitted != 0 {
				t.Fatalf("admission stats = %+v: an async attempt went through admission", st)
			}
		})
	}
}
