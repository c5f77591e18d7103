package neos

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"hslb/internal/jobstore"
)

// Pull-worker protocol: remote solver nodes (cmd/hslbworker) take jobs off
// the durable queue over HTTP instead of the server pushing work to them.
// Every grant carries a fencing token; the token must accompany renewals
// and terminal reports, so a worker whose lease lapsed (crash, partition,
// zombie) can never clobber the re-executed job.
//
//	POST /work/lease     — claim the oldest runnable job (204 = no work)
//	POST /work/renew     — heartbeat: extend the lease
//	POST /work/complete  — report the solve result (idempotent, see below)
//	POST /work/fail      — report a failure (retryable, permanent, or a
//	                       drain-time release that returns the attempt)

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

// ttlClampMax bounds worker-requested lease TTLs to this multiple of the
// configured LeaseTTL, so a buggy worker cannot park a job for an hour.
const ttlClampMax = 10

// grantTTL resolves a requested lease duration against the server clamp.
// The floor is 1s, or the configured LeaseTTL when the operator set one
// shorter (tests and latency-sensitive fleets).
func (s *Server) grantTTL(requestedMs int64) time.Duration {
	ttl := s.cfg.LeaseTTL
	if requestedMs > 0 {
		ttl = time.Duration(requestedMs) * time.Millisecond
	}
	floor := time.Second
	if s.cfg.LeaseTTL < floor {
		floor = s.cfg.LeaseTTL
	}
	if ttl < floor {
		ttl = floor
	}
	if max := ttlClampMax * s.cfg.LeaseTTL; ttl > max {
		ttl = max
	}
	return ttl
}

func decodeWorkBody(w http.ResponseWriter, r *http.Request, out interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(out); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) handleWorkLease(w http.ResponseWriter, r *http.Request) {
	var req WorkLeaseRequest
	if !decodeWorkBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		http.Error(w, "worker_id required", http.StatusBadRequest)
		return
	}
	// A draining server stops handing out new leases; in-flight leases may
	// still renew and complete below.
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// An open breaker means the solver tier is sick on a model class; remote
	// workers run their own solvers, but handing out attempts while failures
	// cascade just burns them — shed with Retry-After like the sync path.
	if !s.guard.brk.Allow() {
		s.shed(w, "circuit breaker open")
		return
	}
	ttl := s.grantTTL(req.TTLMs)
	job, wait, err := s.store.Lease(req.WorkerID, ttl)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if job == nil {
		// No runnable work. The wait hint covers both backoff delays and the
		// next lease expiry, so pollers return in time to pick up reclaims.
		if wait <= 0 {
			wait = time.Second
		}
		w.Header().Set("X-Wait-Ms", fmt.Sprintf("%d", wait.Milliseconds()))
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int((wait+time.Second-1)/time.Second)))
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, WorkGrant{
		JobID:       job.ID,
		Fence:       job.Fence,
		Attempt:     job.Attempts,
		MaxAttempts: job.MaxAttempts,
		TTLMs:       ttl.Milliseconds(),
		Request:     job.Request,
	})
}

func (s *Server) handleWorkRenew(w http.ResponseWriter, r *http.Request) {
	var req WorkRenewRequest
	if !decodeWorkBody(w, r, &req) {
		return
	}
	ttl, err := s.store.Renew(req.JobID, req.Fence, s.grantTTL(req.TTLMs))
	switch {
	case errors.Is(err, jobstore.ErrNotFound):
		http.Error(w, "unknown job", http.StatusNotFound)
	case errors.Is(err, jobstore.ErrStaleLease):
		http.Error(w, "stale lease", http.StatusConflict)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		writeJSON(w, http.StatusOK, WorkRenewResponse{TTLMs: ttl.Milliseconds()})
	}
}

func (s *Server) handleWorkComplete(w http.ResponseWriter, r *http.Request) {
	var req WorkCompleteRequest
	if !decodeWorkBody(w, r, &req) {
		return
	}
	if req.Result == nil {
		http.Error(w, "result required", http.StatusBadRequest)
		return
	}
	err := s.completeJob(req.JobID, req.Fence, req.Result)
	switch {
	case errors.Is(err, jobstore.ErrNotFound):
		http.Error(w, "unknown job", http.StatusNotFound)
	case errors.Is(err, jobstore.ErrStaleLease):
		// Idempotency escape hatch: a worker that crashed after the server
		// recorded its complete (but before it saw the 200) will replay the
		// report with a now-stale token. If the job is already finished with
		// a byte-identical result this is that replay — absorb it. Anything
		// else is a zombie trying to overwrite a newer execution: reject,
		// and never serve its result.
		if s.isDuplicateComplete(req.JobID, req.Result) {
			s.dupCompletes.Add(1)
			writeJSON(w, http.StatusOK, WorkCompleteResponse{Duplicate: true})
			return
		}
		http.Error(w, "stale lease", http.StatusConflict)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		writeJSON(w, http.StatusOK, WorkCompleteResponse{})
	}
}

func (s *Server) handleWorkFail(w http.ResponseWriter, r *http.Request) {
	var req WorkFailRequest
	if !decodeWorkBody(w, r, &req) {
		return
	}
	var err error
	switch {
	case req.Release:
		err = s.store.Release(req.JobID, req.Fence)
	case req.Retryable:
		_, err = s.store.Requeue(req.JobID, req.Fence, req.Error, s.cfg.RetryBackoff)
	default:
		err = s.store.MarkFailed(req.JobID, req.Fence, req.Error)
	}
	switch {
	case errors.Is(err, jobstore.ErrNotFound):
		http.Error(w, "unknown job", http.StatusNotFound)
	case errors.Is(err, jobstore.ErrStaleLease):
		http.Error(w, "stale lease", http.StatusConflict)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		writeJSON(w, http.StatusOK, struct{}{})
	}
}

// completeJob applies a worker-reported result under the fencing token
// through finishJob, then warms the solve cache: a remote answer, unlike a
// local solve, has not filled it yet.
func (s *Server) completeJob(id, fence int64, resp *SolveResponse) error {
	if err := s.finishJob(id, fence, resp); err != nil {
		return err
	}
	s.warmFromJob(id, resp)
	return nil
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

// warmFromJob fills the solve cache from a remotely computed result, so the
// fleet's work benefits the server's sync path (and, with CachePersist, the
// result store) exactly like a local solve — a remote worker's answer is a
// fresh solver fill, so it replicates too.
func (s *Server) warmFromJob(id int64, resp *SolveResponse) {
	if !persistable(resp) {
		return
	}
	job, ok := s.store.Get(id)
	if !ok {
		return
	}
	var req SolveRequest
	if err := json.Unmarshal(job.Request, &req); err != nil {
		return
	}
	if key, err := RequestKey(&req); err == nil {
		s.fill(key, resp)
	}
}
