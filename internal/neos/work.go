package neos

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"hslb/internal/jobstore"
)

// Pull-worker protocol: remote solver nodes (cmd/hslbworker) take jobs off
// the durable queue over HTTP instead of the server pushing work to them;
// the in-process workers call the same five lease methods directly.
// Every grant carries a fencing token; the token must accompany renewals
// and terminal reports, so a worker whose lease lapsed (crash, partition,
// zombie) can never clobber the re-executed job.
//
//	POST /work/lease     — claim the oldest runnable job (204 = no work)
//	POST /work/renew     — heartbeat: extend the lease
//	POST /work/complete  — report the solve result (idempotent, see below)
//	POST /work/fail      — report a failure (retryable, permanent, or a
//	                       drain-time release that returns the attempt)

// ErrLeaseLost is returned by the lease methods when the fencing token is
// stale (HTTP 409 on the wire): the lease expired or the job was handed to
// another worker. The correct response is to stop computing and lease fresh
// work — any result already computed will never be recorded.
var ErrLeaseLost = errors.New("neos: lease lost (stale fencing token)")

// WorkLeaseRequest is the JSON body of /work/lease.
type WorkLeaseRequest struct {
	// WorkerID identifies the node for lease bookkeeping and /metrics;
	// required, but not a credential.
	WorkerID string `json:"worker_id"`
	// TTLMs is the requested lease duration; 0 takes the server default.
	// The grant's TTLMs is authoritative — the server clamps requests to
	// [1s, 10×LeaseTTL].
	TTLMs int64 `json:"ttl_ms,omitempty"`
}

// WorkGrant is the JSON body of a successful /work/lease.
type WorkGrant struct {
	JobID       int64 `json:"job_id"`
	Fence       int64 `json:"fence"`
	Attempt     int   `json:"attempt"`
	MaxAttempts int   `json:"max_attempts"`
	// TTLMs is the granted lease duration; renew well before it lapses.
	TTLMs int64 `json:"ttl_ms"`
	// Request is the job's SolveRequest payload, verbatim.
	Request json.RawMessage `json:"request"`
}

// WorkRenewRequest is the JSON body of /work/renew.
type WorkRenewRequest struct {
	JobID int64 `json:"job_id"`
	Fence int64 `json:"fence"`
	TTLMs int64 `json:"ttl_ms,omitempty"`
}

// WorkRenewResponse is the JSON body of a successful /work/renew.
type WorkRenewResponse struct {
	TTLMs int64 `json:"ttl_ms"`
}

// WorkCompleteRequest is the JSON body of /work/complete.
type WorkCompleteRequest struct {
	JobID  int64          `json:"job_id"`
	Fence  int64          `json:"fence"`
	Result *SolveResponse `json:"result"`
}

// WorkCompleteResponse is the JSON body of a successful /work/complete.
type WorkCompleteResponse struct {
	// Duplicate is true when the job was already finished with a
	// byte-identical result and this complete was absorbed as a no-op —
	// a restarted worker replaying its last report, not an error.
	Duplicate bool `json:"duplicate,omitempty"`
}

// WorkFailRequest is the JSON body of /work/fail.
type WorkFailRequest struct {
	JobID int64  `json:"job_id"`
	Fence int64  `json:"fence"`
	Error string `json:"error,omitempty"`
	// Retryable requeues the job with backoff (the attempt is consumed);
	// false marks it permanently failed.
	Retryable bool `json:"retryable,omitempty"`
	// Release returns the job to the queue without consuming the attempt —
	// a draining worker handing back work it will not finish. Overrides
	// Retryable.
	Release bool `json:"release,omitempty"`
}

// grantTTL resolves a requested lease duration (0 = LeaseTTL) against the
// server clamp: at most 10×LeaseTTL, so a buggy worker cannot park a job
// for an hour, and at least 1s, or the configured LeaseTTL when the
// operator set one shorter (tests and latency-sensitive fleets).
func (s *Server) grantTTL(requested time.Duration) time.Duration {
	ttl := s.cfg.LeaseTTL
	if requested > 0 {
		ttl = requested
	}
	return min(max(ttl, min(time.Second, s.cfg.LeaseTTL)), 10*s.cfg.LeaseTTL)
}

// The lease operations below are the work protocol's server side, one copy
// shared by the /work handlers and the in-process workers, which call them
// directly. They have *Client's signatures, so one Worker loop runs over
// either; a stale fencing token surfaces as ErrLeaseLost, wrapping
// jobstore.ErrStaleLease.

// LeaseWork claims the oldest runnable job for workerID under a lease of
// ttl, clamped by the server (0 = LeaseTTL). With no runnable job it
// returns (nil, wait, nil): wait is the time until the next backoff or
// lease expiry, 0 when nothing is pending at all. An open breaker refuses
// with a shedError: the solver tier is sick on a model class, and handing
// out attempts while failures cascade just burns them.
func (s *Server) LeaseWork(_ context.Context, workerID string, ttl time.Duration) (*WorkGrant, time.Duration, error) {
	if !s.guard.brk.Allow() {
		return nil, 0, shedError("circuit breaker open")
	}
	ttl = s.grantTTL(ttl)
	job, wait, err := s.store.Lease(workerID, ttl)
	if err != nil || job == nil {
		return nil, wait, err
	}
	return &WorkGrant{
		JobID:       job.ID,
		Fence:       job.Fence,
		Attempt:     job.Attempts,
		MaxAttempts: job.MaxAttempts,
		TTLMs:       ttl.Milliseconds(),
		Request:     job.Request,
	}, 0, nil
}

// RenewWork extends the lease on a held job and returns the granted TTL.
func (s *Server) RenewWork(_ context.Context, jobID, fence int64, ttl time.Duration) (time.Duration, error) {
	ttl, err := s.store.Renew(jobID, fence, s.grantTTL(ttl))
	return ttl, leaseErr(err)
}

// CompleteWork records a finished solve under the fencing token: parse and
// solver errors are deterministic — retrying cannot help — so they fail the
// job permanently; anything else marks it done with the canonically
// marshaled result. It does not touch the solve cache: an in-process
// attempt already filled it through its solve, and /work/complete warms it
// for remote ones.
//
// Idempotency escape hatch: a worker that crashed after the server recorded
// its complete (but before it saw the reply) replays the report with a
// now-stale token. If the job is already finished with a byte-identical
// result this is that replay — absorbed, duplicate true. Anything else is a
// zombie trying to overwrite a newer execution: rejected, never served.
func (s *Server) CompleteWork(_ context.Context, jobID, fence int64, resp *SolveResponse) (bool, error) {
	err := s.finishJob(jobID, fence, resp)
	if errors.Is(err, jobstore.ErrStaleLease) && s.isDuplicateComplete(jobID, resp) {
		s.dupCompletes.Add(1)
		return true, nil
	}
	return false, leaseErr(err)
}

func (s *Server) finishJob(id, fence int64, resp *SolveResponse) error {
	if resp.Status == "error" {
		return s.store.MarkFailed(id, fence, resp.Error)
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		return s.store.MarkFailed(id, fence, "encode result: "+err.Error())
	}
	return s.store.MarkDone(id, fence, payload)
}

// FailWork reports a failed attempt: retryable requeues the job with
// RetryBackoff (the attempt is consumed), otherwise it fails permanently.
func (s *Server) FailWork(_ context.Context, jobID, fence int64, errMsg string, retryable bool) error {
	if retryable {
		_, err := s.store.Requeue(jobID, fence, errMsg, s.cfg.RetryBackoff)
		return leaseErr(err)
	}
	return leaseErr(s.store.MarkFailed(jobID, fence, errMsg))
}

// ReleaseWork hands a held job back to the queue without consuming its
// attempt.
func (s *Server) ReleaseWork(_ context.Context, jobID, fence int64) error {
	return leaseErr(s.store.Release(jobID, fence))
}

// leaseErr maps the store's stale-token rejection to ErrLeaseLost.
func leaseErr(err error) error {
	if errors.Is(err, jobstore.ErrStaleLease) {
		return fmt.Errorf("%w: %w", ErrLeaseLost, err)
	}
	return err
}

// isDuplicateComplete reports whether the job already reached the terminal
// state this result describes, byte for byte. Results are compared via
// SHA-256 over the canonical json.Marshal form (map keys sorted), so a
// replayed report hashes identically regardless of the wire formatting the
// worker used.
func (s *Server) isDuplicateComplete(id int64, resp *SolveResponse) bool {
	job, ok := s.store.Get(id)
	if !ok {
		return false
	}
	if resp.Status == "error" {
		return job.Status == jobstore.Failed && job.Error == resp.Error
	}
	if job.Status != jobstore.Done || len(job.Result) == 0 {
		return false
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		return false
	}
	return sha256.Sum256(payload) == sha256.Sum256(job.Result)
}

// completeRemote is CompleteWork for a remote worker's report
// (/work/complete). A recorded answer, unlike an in-process solve, has not
// filled the solve cache yet, so it fills it: the fleet's work benefits the
// server's sync path (and, with CachePersist, the result store) exactly like
// a local solve, and as a fresh solver fill it replicates too.
func (s *Server) completeRemote(ctx context.Context, jobID, fence int64, resp *SolveResponse) (bool, error) {
	dup, err := s.CompleteWork(ctx, jobID, fence, resp)
	if err != nil || dup || !persistable(resp) {
		return dup, err
	}
	job, ok := s.store.Get(jobID)
	if !ok {
		return false, nil
	}
	var req SolveRequest
	if err := json.Unmarshal(job.Request, &req); err != nil {
		return false, nil
	}
	if key, err := RequestKey(&req); err == nil {
		s.fill(key, resp)
	}
	return false, nil
}
