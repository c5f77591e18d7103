package neos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hslb/internal/cas"
	"hslb/internal/jobstore"
	"hslb/internal/resultstore"
)

// The HTTP adapter: routes, one body reader, one error-to-status mapping,
// and the HTTP shard-to-shard transfer. Every decision is the core's; a
// handler decodes, calls the core once and encodes.

// maxRequestBody caps every POST body; AMPL sources for the paper's largest
// instances are a few KiB, so 1 MiB is generous.
const maxRequestBody = 1 << 20

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Liveness: 200 while the process is up, even when browning out —
	// restarting an overloaded instance only makes the overload worse.
	mux.HandleFunc("GET /health", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /ready", func(w http.ResponseWriter, r *http.Request) {
		if err := s.ready(); err != nil {
			s.writeErr(w, err)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /submit", s.handleSubmit)
	mux.HandleFunc("GET /result", s.handleResult)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.metrics())
	})
	mux.HandleFunc("GET /blob/{hash}", s.handleBlob)
	mux.HandleFunc("GET /history/{key...}", s.handleHistory)
	mux.HandleFunc("GET /keys", func(w http.ResponseWriter, r *http.Request) {
		keys, err := s.storeKeys(r.URL.Query().Get("prefix"))
		s.reply(w, keys, err)
	})
	mux.HandleFunc("GET /replicate/{key}", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.replica(r.PathValue("key"))
		if err != nil {
			s.writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	})
	mux.HandleFunc("POST /replicate/{key}", func(w http.ResponseWriter, r *http.Request) {
		data, err := readBody(w, r)
		if err == nil {
			err = s.ingest(r.PathValue("key"), data)
		}
		if err != nil {
			s.writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	// GET /admin/peers is the membership; POST replaces the peer set:
	// {"peers": ["url", ...]}.
	mux.HandleFunc("GET /admin/peers", func(w http.ResponseWriter, r *http.Request) {
		s.reply(w, s.membership(), nil)
	})
	mux.HandleFunc("POST /admin/peers", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Peers []string `json:"peers"`
		}
		err := readJSON(w, r, &req)
		if err == nil {
			s.setPeers(req.Peers)
		}
		s.reply(w, s.membership(), err)
	})
	mux.HandleFunc("POST /work/lease", s.handleWorkLease)
	mux.HandleFunc("POST /work/renew", func(w http.ResponseWriter, r *http.Request) {
		var req WorkRenewRequest
		var ttl time.Duration
		err := readJSON(w, r, &req)
		if err == nil {
			ttl, err = s.RenewWork(r.Context(), req.JobID, req.Fence, time.Duration(req.TTLMs)*time.Millisecond)
		}
		s.reply(w, WorkRenewResponse{TTLMs: ttl.Milliseconds()}, err)
	})
	mux.HandleFunc("POST /work/complete", func(w http.ResponseWriter, r *http.Request) {
		var req WorkCompleteRequest
		var dup bool
		err := readJSON(w, r, &req)
		if err == nil && req.Result == nil {
			err = badRequest("result required")
		}
		if err == nil {
			dup, err = s.completeRemote(r.Context(), req.JobID, req.Fence, req.Result)
		}
		s.reply(w, WorkCompleteResponse{Duplicate: dup}, err)
	})
	mux.HandleFunc("POST /work/fail", func(w http.ResponseWriter, r *http.Request) {
		var req WorkFailRequest
		err := readJSON(w, r, &req)
		switch {
		case err != nil:
		case req.Release:
			err = s.ReleaseWork(r.Context(), req.JobID, req.Fence)
		default:
			err = s.FailWork(r.Context(), req.JobID, req.Fence, req.Error, req.Retryable)
		}
		s.reply(w, struct{}{}, err)
	})
	return mux
}

// readBody reads a POST body under the one size limit; past it the read
// fails with *http.MaxBytesError, which writeErr answers 413.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
}

// readJSON decodes a POST body read by readBody into out.
func readJSON(w http.ResponseWriter, r *http.Request, out interface{}) error {
	data, err := readBody(w, r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return badRequest("bad JSON: " + err.Error())
	}
	return nil
}

// readSolveRequest decodes a /solve or /submit body.
func readSolveRequest(w http.ResponseWriter, r *http.Request) (*SolveRequest, error) {
	var req SolveRequest
	if err := readJSON(w, r, &req); err != nil {
		return nil, err
	}
	if strings.TrimSpace(req.Model) == "" {
		return nil, badRequest("empty model")
	}
	return &req, nil
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// reply answers v as 200 JSON, or err through writeErr.
func (s *Server) reply(w http.ResponseWriter, v interface{}, err error) {
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// writeErr answers a failed request: the adapter's one error-to-status
// mapping. A shed is a 429 whose Retry-After comes from the observed solve
// latency and queue depth.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	var (
		shed   shedError
		bad    badRequest
		busy   unavailable
		tooBig *http.MaxBytesError
	)
	code := http.StatusInternalServerError
	switch {
	case errors.As(err, &shed):
		retry := s.guard.adm.RetryAfter()
		// The header has whole-second resolution (round up); the body carries
		// the raw estimate for clients that can back off in milliseconds.
		w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, map[string]interface{}{
			"error":          "overloaded: " + string(shed),
			"retry_after_ms": retry.Milliseconds(),
		})
		return
	case errors.As(err, &tooBig):
		code, err = http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
	case errors.As(err, &bad):
		code = http.StatusBadRequest
	case errors.As(err, &busy):
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	case errors.Is(err, errNotFound), errors.Is(err, jobstore.ErrNotFound),
		errors.Is(err, resultstore.ErrNoKey), errors.Is(err, cas.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrLeaseLost):
		code = http.StatusConflict
	case errors.Is(err, errNotPersistable):
		code = http.StatusUnprocessableEntity
	}
	http.Error(w, err.Error(), code)
}

// requestBudget extracts the client's propagated deadline: the
// X-Request-Deadline-Ms header when present, else the request's
// timeout_ms field (0 = none). The server-wide SolveTimeout still caps the
// actual solve.
func requestBudget(r *http.Request, req *SolveRequest) (time.Duration, error) {
	if h := r.Header.Get("X-Request-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return 0, badRequest(fmt.Sprintf("bad X-Request-Deadline-Ms %q", h))
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	if req.TimeoutMs > 0 {
		return time.Duration(req.TimeoutMs) * time.Millisecond, nil
	}
	return 0, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, err := readSolveRequest(w, r)
	var budget time.Duration
	if err == nil {
		budget, err = requestBudget(r, req)
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// The budget context derives from Background, not r.Context(): a
	// coalesced solve must not die with one disconnecting client.
	ctx := context.Background()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = s.cfg.clock.WithTimeout(ctx, budget)
		defer cancel()
	}
	resp, err := s.solve(ctx, req, true)
	s.reply(w, resp, err)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := readSolveRequest(w, r)
	var id int64
	if err == nil {
		id, err = s.submit(req)
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int64{"id": id})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		s.writeErr(w, badRequest("bad or missing id"))
		return
	}
	job, ok := s.store.Get(id)
	if !ok {
		s.writeErr(w, fmt.Errorf("unknown job: %w", errNotFound))
		return
	}
	out := JobResult{
		ID:       job.ID,
		Status:   JobStatus(job.Status),
		Attempts: job.Attempts,
		Error:    job.Error,
	}
	if len(job.Result) > 0 {
		var resp SolveResponse
		if err := json.Unmarshal(job.Result, &resp); err == nil {
			out.Result = &resp
		}
	}
	code := http.StatusOK
	if job.Status == jobstore.Failed {
		// Surface solver failures as a non-200 so polling clients and
		// load balancers can distinguish them without inspecting bodies.
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, out)
}

// JobSummary is one row of the /jobs listing.
type JobSummary struct {
	ID          int64     `json:"id"`
	Status      JobStatus `json:"status"`
	Attempts    int       `json:"attempts"`
	MaxAttempts int       `json:"max_attempts"`
	EnqueuedAt  time.Time `json:"enqueued_at"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	Error       string    `json:"error,omitempty"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	status := jobstore.Status(r.URL.Query().Get("status"))
	switch status {
	case "", jobstore.Queued, jobstore.Running, jobstore.Done, jobstore.Failed:
	default:
		s.writeErr(w, badRequest("unknown status filter"))
		return
	}
	jobs := s.store.List(status)
	out := make([]JobSummary, len(jobs))
	for i, j := range jobs {
		out[i] = JobSummary{
			ID:          j.ID,
			Status:      JobStatus(j.Status),
			Attempts:    j.Attempts,
			MaxAttempts: j.MaxAttempts,
			EnqueuedAt:  j.EnqueuedAt,
			FinishedAt:  j.FinishedAt,
			Error:       j.Error,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWorkLease(w http.ResponseWriter, r *http.Request) {
	var req WorkLeaseRequest
	err := readJSON(w, r, &req)
	switch {
	case err != nil:
	case req.WorkerID == "":
		err = badRequest("worker_id required")
	case s.draining.Load():
		// A draining server stops handing out new leases; in-flight leases
		// may still renew and complete.
		err = unavailable("draining")
	}
	var grant *WorkGrant
	var wait time.Duration
	if err == nil {
		grant, wait, err = s.LeaseWork(r.Context(), req.WorkerID, time.Duration(req.TTLMs)*time.Millisecond)
	}
	if err != nil || grant != nil {
		s.reply(w, grant, err)
		return
	}
	// No runnable work. The wait hint covers both backoff delays and the
	// next lease expiry, so pollers return in time to pick up reclaims.
	if wait <= 0 {
		wait = time.Second
	}
	w.Header().Set("X-Wait-Ms", strconv.FormatInt(wait.Milliseconds(), 10))
	w.Header().Set("Retry-After", strconv.Itoa(int((wait+time.Second-1)/time.Second)))
	w.WriteHeader(http.StatusNoContent)
}

// handleBlob serves raw store blobs by content hash: GET /blob/{hash}. A
// chunk that fails integrity verification is a 500, never altered bytes.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	if s.results == nil {
		s.writeErr(w, errNoStore)
		return
	}
	h, err := cas.ParseHash(r.PathValue("hash"))
	if err != nil {
		s.writeErr(w, badRequest("bad hash: "+err.Error()))
		return
	}
	data, err := s.results.CAS().Get(h)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// HistoryEntry is one commit in a /history listing.
type HistoryEntry struct {
	Hash   string            `json:"hash"`
	Parent string            `json:"parent,omitempty"`
	Value  string            `json:"value"`
	Seq    int               `json:"seq"`
	Unix   int64             `json:"unix"`
	Meta   map[string]string `json:"meta,omitempty"`
}

// handleHistory lists a key's commit history, newest first:
// GET /history/{key...}?limit=N.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.results == nil {
		s.writeErr(w, errNoStore)
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			s.writeErr(w, badRequest("bad limit"))
			return
		}
		limit = n
	}
	log, err := s.results.Log(r.PathValue("key"), limit)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	out := make([]HistoryEntry, len(log))
	for i, c := range log {
		out[i] = HistoryEntry{
			Hash: c.Hash, Parent: c.Parent, Value: c.Value,
			Seq: c.Seq, Unix: c.Unix, Meta: c.Meta,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// httpTransfer is the shard-to-shard transfer over HTTP: GET and POST
// {peer}/replicate/{key}, GET {peer}/keys?prefix=P. Its client has no
// Timeout: every call runs under the caller's context deadline.
type httpTransfer struct {
	client http.Client
}

func (t *httpTransfer) fetch(ctx context.Context, peer, key string) ([]byte, error) {
	return t.call(ctx, http.MethodGet, peer+"/replicate/"+key, nil)
}

func (t *httpTransfer) push(ctx context.Context, peer, key string, data []byte) error {
	_, err := t.call(ctx, http.MethodPost, peer+"/replicate/"+key, data)
	return err
}

func (t *httpTransfer) keys(ctx context.Context, peer, prefix string) ([]string, error) {
	data, err := t.call(ctx, http.MethodGet, peer+"/keys?prefix="+prefix, nil)
	if err != nil {
		return nil, err
	}
	var keys []string
	if err := json.Unmarshal(data, &keys); err != nil {
		return nil, err
	}
	return keys, nil
}

// call makes one shard-to-shard request under ctx and returns the body of
// a 2xx answer. A 404 wraps errNotFound; any other status is an error.
func (t *httpTransfer) call(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBody))
	switch {
	case err != nil:
		return nil, err
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("%s %s: %w", method, url, errNotFound)
	case resp.StatusCode/100 != 2:
		return nil, fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	return data, nil
}
