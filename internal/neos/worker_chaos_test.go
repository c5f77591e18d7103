package neos

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hslb/internal/clock"
)

// TestChaosFleet is the acceptance suite for the lease/fencing layer: a
// fleet of pull workers executes a batch of jobs while crash actors abandon
// leases mid-solve, a renewal-partitioned worker computes through an
// expired lease, and a zombie attempts a stale-token complete with a
// conflicting answer. Invariants, under -race:
//
//   - every enqueued job reaches exactly one terminal state (here: done);
//   - no job is lost;
//   - no job is executed to two conflicting results — every done job's
//     result is the deterministic expected value;
//   - every stale fencing write is rejected (HTTP 409 / ErrLeaseLost) and
//     counted on /metrics;
//   - every remote result warmed the solve cache: replaying the batch
//     through POST /solve costs zero solver invocations.
func TestChaosFleet(t *testing.T) {
	ttl := 150 * time.Millisecond
	if raceEnabled {
		ttl = 600 * time.Millisecond
	}
	_, _, c := newServerWith(t, Config{
		MaxConcurrent: 4,
		AsyncWorkers:  -1, // the queue belongs to the remote fleet
		LeaseTTL:      ttl,
		JobTimeout:    -1,
		MaxAttempts:   6,
		RetryBackoff:  time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Submit the batch. Results are deterministic functions of the model,
	// so two conflicting executions of one job are detectable.
	const jobs = 16
	expect := map[int64]float64{}   // job id -> objective
	byModel := map[string]float64{} // model text -> objective (for SolveFn hooks)
	for i := 0; i < jobs; i++ {
		n := i + 2
		model := boundModel(n)
		id, err := c.Submit(ctx, &SolveRequest{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		expect[id] = float64(n)
		byModel[strings.TrimSpace(model)] = float64(n)
	}
	hookSolve := func(req *SolveRequest) *SolveResponse {
		obj, ok := byModel[strings.TrimSpace(req.Model)]
		if !ok {
			return &SolveResponse{Status: "error", Error: "unknown model in hook"}
		}
		return &SolveResponse{Status: "optimal", Objective: obj,
			Variables: map[string]float64{"x": obj}}
	}

	// Crash actors: lease three jobs and die mid-solve — no renew, no
	// complete, no release. Only the reaper can rescue these.
	var crashed []*WorkGrant
	for i := 0; i < 3; i++ {
		g, _, err := c.LeaseWork(ctx, fmt.Sprintf("crash-%d", i), 0)
		if err != nil || g == nil {
			t.Fatalf("crash lease %d = (%v, %v)", i, g, err)
		}
		crashed = append(crashed, g)
	}

	// Zombie actor: holds a lease past expiry, then tries to commit a
	// conflicting result with the stale token.
	zombie, _, err := c.LeaseWork(ctx, "zombie", 0)
	if err != nil || zombie == nil {
		t.Fatalf("zombie lease = (%v, %v)", zombie, err)
	}

	// The healthy fleet: three normal nodes solving via the deterministic
	// hook, plus one whose renewals are black-holed (a network partition)
	// while its solves outlive the lease — its work is re-executed by the
	// others, and its late byte-identical completes must be absorbed or
	// rejected, never double-applied.
	var wg sync.WaitGroup
	startWorker := func(wc *Client, cfg WorkerConfig) {
		w, err := NewWorker(wc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Run(ctx) }()
	}
	for i := 0; i < 3; i++ {
		startWorker(c, WorkerConfig{
			ID:          fmt.Sprintf("w%d", i),
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			SolveFn: func(sctx context.Context, req *SolveRequest) *SolveResponse {
				_ = clock.Wall.Sleep(sctx, 3*time.Millisecond) // a cancelled solve still answers
				return hookSolve(req)
			},
		})
	}
	partClient := NewClient(c.BaseURL)
	partClient.HTTP = &http.Client{Transport: &partitionTransport{}}
	startWorker(partClient, WorkerConfig{
		ID:          "partitioned",
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		SolveFn: func(sctx context.Context, req *SolveRequest) *SolveResponse {
			// Outlive the lease: the renewal partition guarantees expiry.
			_ = clock.Wall.Sleep(sctx, 3*ttl)
			return hookSolve(req)
		},
	})

	// Zombie wakes up well past expiry and tries to clobber the job.
	time.Sleep(2 * ttl)
	_, zerr := c.CompleteWork(ctx, zombie.JobID, zombie.Fence,
		&SolveResponse{Status: "optimal", Objective: -999})
	if !errors.Is(zerr, ErrLeaseLost) {
		t.Fatalf("zombie conflicting complete = %v, want ErrLeaseLost", zerr)
	}

	// Crash actors' stale completes (they "reboot" and replay with old
	// fences and wrong answers) must bounce too.
	for i, g := range crashed {
		if _, err := c.CompleteWork(ctx, g.JobID, g.Fence,
			&SolveResponse{Status: "optimal", Objective: -1}); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("crashed actor %d stale complete = %v, want ErrLeaseLost", i, err)
		}
	}

	// Every job terminal.
	budget := 60 * time.Second
	for id, obj := range expect {
		jr := waitTerminal(t, c, id, budget)
		if jr.Status != JobDone {
			t.Fatalf("job %d = %v (%s), want done", id, jr.Status, jr.Error)
		}
		if jr.Result == nil || jr.Result.Objective != obj {
			t.Fatalf("job %d result = %+v, want objective %v (conflicting execution?)", id, jr.Result, obj)
		}
	}

	cancel()
	wg.Wait()

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Jobs.Counts["done"]; got != jobs {
		t.Fatalf("done = %d, want %d", got, jobs)
	}
	if got := m.Jobs.Counts["failed"] + m.Jobs.Counts["queued"] + m.Jobs.Counts["running"]; got != 0 {
		t.Fatalf("non-done jobs remain: %+v", m.Jobs.Counts)
	}
	// 3 crashes + the zombie's lease all expired and were reclaimed.
	if m.Jobs.LeaseReclaims < 4 {
		t.Fatalf("lease reclaims = %d, want >= 4", m.Jobs.LeaseReclaims)
	}
	// The zombie and the three crash replays were all rejected.
	if m.Jobs.StaleRejects < 4 {
		t.Fatalf("stale rejects = %d, want >= 4", m.Jobs.StaleRejects)
	}
	if m.Jobs.Leased != 0 || m.Jobs.ActiveWorkers != 0 {
		t.Fatalf("leases outstanding after drain: %d held by %d workers",
			m.Jobs.Leased, m.Jobs.ActiveWorkers)
	}

	// Every remote complete warmed the server's solve cache: replaying the
	// whole batch through POST /solve returns the recorded objectives
	// without one solver invocation.
	for model, obj := range byModel {
		out, err := c.Solve(context.Background(), &SolveRequest{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if out.Objective != obj {
			t.Fatalf("replay of %q = %v, want recorded %v", model, out.Objective, obj)
		}
	}
	after, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Solves.Count - m.Solves.Count; n != 0 {
		t.Fatalf("replaying the batch invoked the solver %d times; fleet results did not warm the cache", n)
	}
}

// partitionTransport black-holes lease renewals (connection-level failure,
// as a network partition would) while passing everything else through.
type partitionTransport struct{}

func (p *partitionTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/work/renew") {
		return nil, errors.New("injected partition: renew dropped")
	}
	return http.DefaultTransport.RoundTrip(r)
}
