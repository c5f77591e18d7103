// Package fleet implements the pull-loop solver node of the distributed
// solve fleet: lease a job from an hslbserver over the work protocol,
// solve it with the local MINLP pipeline, report the result under the
// lease's fencing token, repeat. cmd/hslbworker wraps it in a binary; the
// chaos suites drive it in-process against fault-injecting servers.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hslb/internal/backoff"
	"hslb/internal/neos"
)

// Config tunes a Worker.
type Config struct {
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
	// answers). nil uses neos.ExecuteRequest.
	SolveFn func(ctx context.Context, req *neos.SolveRequest) *neos.SolveResponse
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 10 * time.Second
	}
	return c
}

// Stats counts a worker's lifetime outcomes; read with Worker.Stats.
type Stats struct {
	// Completed counts results the server recorded (including Duplicates,
	// which also counts separately); Failed counts attempts reported via
	// /work/fail; Released counts drain-time lease handbacks; LeasesLost
	// counts solves abandoned because the fencing token went stale.
	Completed  uint64
	Duplicates uint64
	Failed     uint64
	Released   uint64
	LeasesLost uint64
}

// Worker is one pull-loop solver node. Create with New, run with Run.
type Worker struct {
	cfg    Config
	client *neos.Client

	completed  atomic.Uint64
	duplicates atomic.Uint64
	failed     atomic.Uint64
	released   atomic.Uint64
	leasesLost atomic.Uint64
}

// New returns a worker pulling from the server behind client.
func New(client *neos.Client, cfg Config) (*Worker, error) {
	if cfg.ID == "" {
		return nil, errors.New("fleet: worker ID required")
	}
	return &Worker{cfg: cfg.withDefaults(), client: client}, nil
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() Stats {
	return Stats{
		Completed:  w.completed.Load(),
		Duplicates: w.duplicates.Load(),
		Failed:     w.failed.Load(),
		Released:   w.released.Load(),
		LeasesLost: w.leasesLost.Load(),
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
	for {
		if ctx.Err() != nil {
			return nil
		}
		grant, wait, err := w.client.LeaseWork(ctx, w.cfg.ID, w.cfg.LeaseTTL)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			// 429 (overload shed) and retried-out 503s carry the server's
			// Retry-After hint; it floors this one sleep only.
			d := backoff.Delay(w.cfg.BaseBackoff, w.cfg.MaxBackoff, errs)
			var se *neos.ServerError
			if errors.As(err, &se) {
				d = max(d, se.RetryAfter)
			}
			errs++
			w.logf("lease error (backing off %v): %v", d, err)
			if backoff.Sleep(ctx, d) != nil {
				return nil
			}
			continue
		}
		errs = 0
		if grant == nil {
			// No work; the hint covers backoffs and upcoming lease expiries.
			if backoff.Sleep(ctx, min(wait, w.cfg.MaxBackoff)) != nil {
				return nil
			}
			continue
		}
		w.execute(ctx, grant)
	}
}

// execute runs one leased job: a heartbeat goroutine renews the lease at a
// third of its TTL (a stale-token renewal cancels the solve — the job is
// someone else's now), the solve runs under the job's own deadline, and the
// result is reported under the fencing token.
func (w *Worker) execute(ctx context.Context, grant *neos.WorkGrant) {
	var req neos.SolveRequest
	if err := unmarshalRequest(grant.Request, &req); err != nil {
		w.failed.Add(1)
		_ = w.client.FailWork(context.Background(), grant.JobID, grant.Fence,
			"corrupt request: "+err.Error(), false)
		return
	}
	// The solve is deliberately not a child of ctx: a SIGTERM mid-solve
	// drains (finish or release) rather than killing the attempt.
	solveCtx, cancelSolve := context.WithCancel(context.Background())
	defer cancelSolve()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithTimeout(solveCtx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}

	ttl := time.Duration(grant.TTLMs) * time.Millisecond
	lost := make(chan struct{})
	heartbeatDone := make(chan struct{})
	heartbeatStop := make(chan struct{})
	defer func() {
		close(heartbeatStop)
		<-heartbeatDone
	}()
	go w.heartbeat(grant, ttl, heartbeatStop, heartbeatDone, lost, cancelSolve)

	done := make(chan *neos.SolveResponse, 1)
	go func() {
		solve := w.cfg.SolveFn
		if solve == nil {
			solve = func(ctx context.Context, req *neos.SolveRequest) *neos.SolveResponse {
				return neos.ExecuteRequest(ctx, req, 1)
			}
		}
		done <- solve(solveCtx, &req)
	}()

	var drain <-chan struct{} = ctx.Done()
	for {
		select {
		case resp := <-done:
			w.report(grant, resp)
			return
		case <-lost:
			// The server re-leased the job; our token can never commit.
			w.leasesLost.Add(1)
			w.logf("job %d: lease lost, abandoning solve", grant.JobID)
			return
		case <-drain:
			drain = nil // arm the grace timer once
			if w.cfg.DrainGrace > 0 {
				w.logf("job %d: draining, letting solve finish (grace %v)", grant.JobID, w.cfg.DrainGrace)
				t := time.NewTimer(w.cfg.DrainGrace)
				select {
				case resp := <-done:
					t.Stop()
					w.report(grant, resp)
					return
				case <-t.C:
				case <-lost:
					t.Stop()
					w.leasesLost.Add(1)
					return
				}
			}
			cancelSolve()
			w.released.Add(1)
			w.logf("job %d: draining, releasing lease", grant.JobID)
			if err := w.client.ReleaseWork(context.Background(), grant.JobID, grant.Fence); err != nil {
				w.logf("job %d: release failed: %v", grant.JobID, err)
			}
			return
		}
	}
}

// heartbeat renews the lease every ttl/3 until stopped. A stale-token
// rejection closes lost and cancels the solve; transient renewal failures
// are tolerated until the next tick (the client already retried transport
// errors), since the lease outlives two missed beats.
func (w *Worker) heartbeat(grant *neos.WorkGrant, ttl time.Duration,
	stop, done chan struct{}, lost chan struct{}, cancelSolve context.CancelFunc) {
	defer close(done)
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			rctx, cancel := context.WithTimeout(context.Background(), interval)
			_, err := w.client.RenewWork(rctx, grant.JobID, grant.Fence, ttl)
			cancel()
			if errors.Is(err, neos.ErrLeaseLost) {
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

// report sends the solve result under the fencing token, distinguishing
// deterministic solver errors (permanent failure) from everything else.
// Reporting uses a background context: the result exists, so it should be
// recorded even while the worker drains.
func (w *Worker) report(grant *neos.WorkGrant, resp *neos.SolveResponse) {
	rctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dup, err := w.client.CompleteWork(rctx, grant.JobID, grant.Fence, resp)
	switch {
	case errors.Is(err, neos.ErrLeaseLost):
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

func unmarshalRequest(raw []byte, req *neos.SolveRequest) error {
	if len(raw) == 0 {
		return fmt.Errorf("empty request payload")
	}
	return json.Unmarshal(raw, req)
}
