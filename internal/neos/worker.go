package neos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hslb/internal/backoff"
	"hslb/internal/clock"
)

// Worker is the one job executor: lease a job, solve it under a heartbeat
// that renews the lease, report the result under the lease's fencing
// token, repeat. cmd/hslbworker runs it over HTTP (NewWorker on a *Client);
// the server's in-process pool runs the same loop straight against its own
// queue. Create with NewWorker, run with Run.
type Worker struct {
	cfg WorkerConfig
	src leaser

	completed, duplicates, failed, released, leasesLost atomic.Uint64
}

// leaser is the work protocol a Worker pulls from: *Client speaks it over
// HTTP, *Server in-process. A stale fencing token surfaces as ErrLeaseLost.
type leaser interface {
	LeaseWork(ctx context.Context, workerID string, ttl time.Duration) (*WorkGrant, time.Duration, error)
	RenewWork(ctx context.Context, jobID, fence int64, ttl time.Duration) (time.Duration, error)
	CompleteWork(ctx context.Context, jobID, fence int64, result *SolveResponse) (bool, error)
	FailWork(ctx context.Context, jobID, fence int64, errMsg string, retryable bool) error
	ReleaseWork(ctx context.Context, jobID, fence int64) error
}

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// ID identifies this node in leases and /metrics (required).
	ID string
	// LeaseTTL is the lease duration requested from the server; the grant
	// is authoritative (0 = server default).
	LeaseTTL time.Duration
	// BaseBackoff is the lease-error retry delay, doubling per consecutive
	// error up to MaxBackoff, which also caps the idle poll; a 429/503's
	// Retry-After hint floors the one sleep it answers (defaults 100ms /
	// 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// DrainGrace bounds how long a stopping worker lets its in-flight solve
	// finish before releasing the lease back to the queue (default 10s;
	// <0 releases immediately).
	DrainGrace time.Duration
	// SolveFn overrides the solve path in tests (zombies, panics, wrong
	// answers). nil uses ExecuteRequest. A nil answer hands the job back
	// without using up its attempt.
	SolveFn func(ctx context.Context, req *SolveRequest) *SolveResponse
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...interface{})

	// Set only by the server's in-process pool. attemptTimeout (0 = none)
	// abandons an attempt as a retryable failure without cancelling the
	// solve, which runs on and can still warm the cache for the retry.
	// ready wakes an idle worker when a job becomes runnable (nil never
	// fires). panics is the counter recovered solve panics add to. clock
	// times backoffs, heartbeats, deadlines and the drain grace (nil =
	// clock.Wall; tests may set it on a remote worker too).
	attemptTimeout time.Duration
	ready          <-chan struct{}
	panics         *atomic.Uint64
	clock          clock.Clock
}

// WorkerStats counts a worker's lifetime outcomes; read with Worker.Stats.
// Completed counts results the server recorded (including Duplicates,
// which also counts separately); Failed counts attempts reported as
// failed; Released counts lease handbacks (drain, or a refused solve);
// LeasesLost counts solves abandoned because the fencing token went stale;
// Panics counts recovered solve panics, whose leases are left to lapse.
type WorkerStats struct {
	Completed, Duplicates, Failed, Released, LeasesLost, Panics uint64
}

// NewWorker returns a worker pulling from the server behind client.
func NewWorker(client *Client, cfg WorkerConfig) (*Worker, error) {
	return newWorker(client, cfg)
}

func newWorker(src leaser, cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, errors.New("neos: worker ID required")
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 10 * time.Second
	}
	if cfg.SolveFn == nil {
		cfg.SolveFn = func(ctx context.Context, req *SolveRequest) *SolveResponse {
			return ExecuteRequest(ctx, req, 1)
		}
	}
	if cfg.panics == nil {
		cfg.panics = new(atomic.Uint64)
	}
	cfg.clock = clock.Or(cfg.clock)
	return &Worker{cfg: cfg, src: src}, nil
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Completed:  w.completed.Load(),
		Duplicates: w.duplicates.Load(),
		Failed:     w.failed.Load(),
		Released:   w.released.Load(),
		LeasesLost: w.leasesLost.Load(),
		Panics:     w.cfg.panics.Load(),
	}
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run pulls and executes jobs until ctx is cancelled, then drains: an
// in-flight solve gets DrainGrace to finish (and is completed normally);
// past that the lease is released so another node picks the job up
// immediately instead of waiting out the TTL. Run returns nil on a clean
// drain.
func (w *Worker) Run(ctx context.Context) error {
	// errs counts consecutive lease errors; any successful RPC proves the
	// server healthy again and resets it, so the next error backs off
	// from BaseBackoff.
	errs := 0
	for ctx.Err() == nil {
		grant, wait, err := w.src.LeaseWork(ctx, w.cfg.ID, w.cfg.LeaseTTL)
		switch {
		case err != nil:
			// 429 (overload shed) and retried-out 503s carry the server's
			// Retry-After hint; it floors this one sleep only.
			d := backoff.Delay(w.cfg.BaseBackoff, w.cfg.MaxBackoff, errs)
			var se *ServerError
			if errors.As(err, &se) {
				d = max(d, se.RetryAfter)
			}
			errs++
			if ctx.Err() == nil {
				w.logf("lease error (backing off %v): %v", d, err)
			}
			_ = w.cfg.clock.Sleep(ctx, d)
		case grant != nil:
			errs = 0
			w.execute(ctx, grant)
		default:
			// No work. The hint covers backoffs and upcoming lease expiries;
			// an in-process worker also wakes on the ready signal, and with
			// no hint (an empty queue) on nothing else.
			errs = 0
			var hint <-chan time.Time
			stop := func() {}
			if wait > 0 || w.cfg.ready == nil {
				t := w.cfg.clock.NewTimer(min(wait, w.cfg.MaxBackoff))
				hint, stop = t.C(), t.Stop
			}
			select {
			case <-ctx.Done():
			case <-w.cfg.ready:
			case <-hint:
			}
			stop() // a fake clock keeps an unstopped timer armed
		}
	}
	return nil
}

// execute runs one leased job: a heartbeat goroutine renews the lease at a
// third of its TTL (a stale-token renewal cancels the solve — the job is
// someone else's now), the solve runs under the job's own deadline, and the
// result is reported under the fencing token. A panicking solve is
// recovered and its lease left to lapse, so the reaper requeues the job.
func (w *Worker) execute(ctx context.Context, grant *WorkGrant) {
	var req SolveRequest
	if err := json.Unmarshal(grant.Request, &req); err != nil {
		w.failed.Add(1)
		_ = w.src.FailWork(context.Background(), grant.JobID, grant.Fence,
			"corrupt request: "+err.Error(), false)
		return
	}
	// The solve is deliberately not a child of ctx: a SIGTERM mid-solve
	// drains (finish or release) rather than killing the attempt. Only the
	// solve's end, a lost lease and a release cancel it; an attempt
	// abandoned at attemptTimeout runs on.
	solveCtx, cancelSolve := context.WithCancel(context.Background())
	if req.TimeoutMs > 0 {
		cancelSolve()
		solveCtx, cancelSolve = w.cfg.clock.WithTimeout(context.Background(), time.Duration(req.TimeoutMs)*time.Millisecond)
	}

	lost := make(chan struct{})
	stopBeat, beatDone := make(chan struct{}), make(chan struct{})
	defer func() {
		close(stopBeat)
		<-beatDone
	}()
	go w.heartbeat(grant, stopBeat, beatDone, lost, cancelSolve)

	done := make(chan *SolveResponse, 1)
	crashed := make(chan struct{})
	go func() {
		defer cancelSolve()
		defer func() {
			if r := recover(); r != nil {
				w.cfg.panics.Add(1)
				w.logf("job %d: solve panicked, leaving the lease to lapse: %v", grant.JobID, r)
				close(crashed)
			}
		}()
		done <- w.cfg.SolveFn(solveCtx, &req)
	}()

	var timeout, grace <-chan time.Time
	if w.cfg.attemptTimeout > 0 {
		t := w.cfg.clock.NewTimer(w.cfg.attemptTimeout)
		defer t.Stop()
		timeout = t.C()
	}
	drain := ctx.Done()
	for {
		select {
		case resp := <-done:
			w.report(grant, resp)
			return
		case <-crashed:
			return
		case <-lost:
			// The server re-leased the job; our token can never commit.
			w.leasesLost.Add(1)
			w.logf("job %d: lease lost, abandoning solve", grant.JobID)
			return
		case <-timeout:
			// Prefer a result that raced in just as the deadline fired over
			// discarding completed work.
			select {
			case resp := <-done:
				w.report(grant, resp)
				return
			default:
			}
			w.failed.Add(1)
			_ = w.src.FailWork(context.Background(), grant.JobID, grant.Fence,
				fmt.Sprintf("attempt %d timed out after %v", grant.Attempt, w.cfg.attemptTimeout), true)
			return
		case <-drain:
			drain = nil
			w.logf("job %d: draining, letting solve finish (grace %v)", grant.JobID, w.cfg.DrainGrace)
			t := w.cfg.clock.NewTimer(max(w.cfg.DrainGrace, 0))
			defer t.Stop()
			grace = t.C()
		case <-grace:
			cancelSolve()
			w.release(grant, "draining")
			return
		}
	}
}

// release hands the job back to the queue without using up its attempt.
func (w *Worker) release(grant *WorkGrant, why string) {
	w.released.Add(1)
	w.logf("job %d: %s, releasing lease", grant.JobID, why)
	if err := w.src.ReleaseWork(context.Background(), grant.JobID, grant.Fence); err != nil {
		w.logf("job %d: release failed: %v", grant.JobID, err)
	}
}

// heartbeat renews the lease every third of its TTL until stopped. A
// stale-token rejection closes lost and cancels the solve; transient
// renewal failures are tolerated until the next tick (the client already
// retried transport errors), since the lease outlives two missed beats.
func (w *Worker) heartbeat(grant *WorkGrant, stop, done, lost chan struct{}, cancelSolve context.CancelFunc) {
	defer close(done)
	ttl := time.Duration(grant.TTLMs) * time.Millisecond
	interval := max(ttl/3, 10*time.Millisecond)
	tick := w.cfg.clock.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C():
			rctx, cancel := w.cfg.clock.WithTimeout(context.Background(), interval)
			_, err := w.src.RenewWork(rctx, grant.JobID, grant.Fence, ttl)
			cancel()
			if errors.Is(err, ErrLeaseLost) {
				cancelSolve()
				close(lost)
				return
			}
			if err != nil {
				w.logf("job %d: renew failed (retrying next beat): %v", grant.JobID, err)
			}
		}
	}
}

// report sends the solve result under the fencing token; the server fails
// deterministic solver errors permanently. A nil result is a solve refused
// rather than answered (an in-process attempt that joined a refused /solve
// flight): the job goes back to the queue without using up the attempt.
// Reporting uses a background context: the result exists, so it should be
// recorded even while the worker drains.
func (w *Worker) report(grant *WorkGrant, resp *SolveResponse) {
	if resp == nil {
		w.release(grant, "solve refused")
		return
	}
	rctx, cancel := w.cfg.clock.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dup, err := w.src.CompleteWork(rctx, grant.JobID, grant.Fence, resp)
	switch {
	case errors.Is(err, ErrLeaseLost):
		w.leasesLost.Add(1)
		w.logf("job %d: complete rejected (stale lease)", grant.JobID)
	case err != nil:
		w.logf("job %d: complete failed: %v", grant.JobID, err)
	default:
		w.completed.Add(1)
		if dup {
			w.duplicates.Add(1)
		}
		if resp.Status == "error" {
			w.failed.Add(1)
		}
		w.logf("job %d: %s (attempt %d/%d)", grant.JobID, resp.Status, grant.Attempt, grant.MaxAttempts)
	}
}
