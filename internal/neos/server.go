package neos

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hslb/internal/ampl"
	"hslb/internal/jobstore"
	"hslb/internal/overload"
	"hslb/internal/resultstore"
	"hslb/internal/solvecache"
)

// maxRequestBody caps /solve and /submit bodies; AMPL sources for the
// paper's largest instances are a few KiB, so 1 MiB is generous.
const maxRequestBody = 1 << 20

// Config tunes the solve service.
type Config struct {
	// MaxConcurrent bounds simultaneous solver invocations across the
	// sync and async paths (default 4).
	MaxConcurrent int
	// CacheSize is the solve-cache capacity in entries
	// (default solvecache.DefaultCapacity).
	CacheSize int
	// DataDir is the directory for the durable job WAL; empty runs the
	// queue in memory only.
	DataDir string
	// SyncWAL fsyncs the WAL on every job transition.
	SyncWAL bool
	// JobTimeout bounds one in-process execution attempt of an async job
	// (default 60s; <0 disables); remote hslbworker attempts have none.
	JobTimeout time.Duration
	// MaxAttempts bounds executions per async job, including the first
	// (default 3).
	MaxAttempts int
	// RetryBackoff is the base delay before re-running a timed-out job,
	// doubled per attempt (default 250ms).
	RetryBackoff time.Duration
	// JobTTL evicts done/failed jobs this long after completion
	// (default 1h; <0 disables).
	JobTTL time.Duration
	// SolveTimeout bounds the branch-and-bound inside one solver
	// invocation, sync or async (default 120s; <0 disables). On expiry
	// the solver stops and reports its best incumbent with status
	// "deadline" instead of pinning a core indefinitely — pathological
	// models exist on which the outer-approximation cut loop makes
	// progress far too slowly to ever finish.
	SolveTimeout time.Duration
	// MaxPendingJobs caps queued+running async jobs; /submit beyond it is
	// rejected with 429 instead of growing the WAL without bound
	// (0 = unlimited, the historical behavior).
	MaxPendingJobs int
	// Overload tunes admission control, the solver circuit breaker and the
	// brownout ladder; the protection is always on.
	Overload OverloadConfig
	// StoreDir is the directory of the content-addressed result store;
	// empty disables it (and the /blob, /history endpoints).
	StoreDir string
	// CachePersist writes solve-cache fills through to the result store
	// and warms the cache from it at startup. Requires StoreDir.
	// Deadline and degraded (brownout) answers are never persisted.
	CachePersist bool
	// StoreKeepHistory truncates each store key's history to its newest N
	// commits during janitor garbage collection (0 keeps everything).
	StoreKeepHistory int
	// Peers are ring-sibling shard base URLs (this server's own URL
	// excluded) consulted on a solve-cache miss: before invoking a solver
	// the server asks each sibling, in the key's deterministic rendezvous
	// order, for a persisted full-quality result — one GET /replicate/{key}
	// per sibling — and warms its local cache from the first hit. Corrupt
	// results, junk payloads and best-effort answers never warm; they fall
	// through to a local solve.
	Peers []string
	// PeerBudget bounds one solve's whole peer consult, across all peers
	// (default 150ms). Past it the server stops asking and solves locally.
	PeerBudget time.Duration
	// SelfURL is this shard's own base URL as the fleet addresses it.
	// Required when Replicate > 1: replica ownership is computed over
	// SelfURL+Peers with the router's rendezvous rule, so the strings must
	// match the router's shard IDs.
	SelfURL string
	// Replicate is the replication factor R: every full-quality result is
	// pushed to the top R members of its key's rendezvous order over
	// SelfURL+Peers (best-effort, with a bounded retry queue; anti-entropy
	// repairs the rest). 0 or 1 disables replication. R > 1 requires
	// SelfURL and CachePersist.
	Replicate int
	// AntiEntropyInterval is the background repair sweep cadence
	// (default 60s; < 0 disables the ticker, leaving only membership-kicked
	// sweeps). Each sweep re-derives every local key's owners and pushes or
	// pulls until the replica sets converge.
	AntiEntropyInterval time.Duration
	// Logf receives replication, anti-entropy and peer-consult log lines;
	// nil discards them.
	Logf func(format string, args ...interface{})
	// LeaseTTL is the default lease duration granted to pull workers on
	// /work/lease (default 30s). A worker may request its own TTL, clamped
	// to [1s, 10×LeaseTTL]. In-process workers take it as is; like remote
	// ones they renew it at a third of its length while they solve, so only
	// a dead attempt (a panicking solve) lets it lapse for the reaper.
	LeaseTTL time.Duration
	// AsyncWorkers is the number of in-process workers pulling /submit
	// jobs off the durable queue (0 = MaxConcurrent, the historical
	// behavior; < 0 runs none, leaving the queue entirely to remote
	// hslbworker nodes on the /work endpoints). Each runs the Worker loop
	// hslbworker runs, straight against this server's queue.
	AsyncWorkers int
	// solveHook overrides the in-process workers' solve in tests (fault
	// injection: panics, hangs, wrong answers). nil uses solveJob.
	solveHook func(ctx context.Context, req *SolveRequest) *SolveResponse
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.JobTTL == 0 {
		c.JobTTL = time.Hour
	}
	if c.SolveTimeout == 0 {
		c.SolveTimeout = 120 * time.Second
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.AsyncWorkers == 0 {
		c.AsyncWorkers = c.MaxConcurrent
	}
	return c
}

// Server is the solve service: a solve cache plus a durable job queue in
// front of the MINLP solvers. Create with NewServer or NewServerWith and
// release with Close.
type Server struct {
	cfg    Config
	cache  *solvecache.Cache[*SolveResponse]
	flight solvecache.Group[*SolveResponse]
	store  *jobstore.Store
	// sem bounds concurrent solver invocations so a burst of requests
	// cannot fork an unbounded number of solver goroutines.
	sem  chan struct{}
	hist *histogram
	// guard is the overload-protection stack.
	guard    *guard
	draining atomic.Bool
	// results is the versioned result store; nil without Config.StoreDir.
	// warmed is how many cache entries Warm loaded from it at startup.
	results *resultstore.Store
	warmed  int
	// peering is the shard-to-shard state: membership, the peer consult
	// on cache misses and R-way replication. Always non-nil (the peer set
	// may be empty, and may change live via /admin/peers).
	peering *peering
	// dupCompletes counts idempotent duplicate completes; workerPanics
	// counts recovered panics in in-process workers (each one leaves a
	// leased job for the reaper to reclaim).
	dupCompletes atomic.Uint64
	workerPanics atomic.Uint64

	// stopWorkers cancels the in-process workers' Run; quit stops the
	// other background loops.
	stopWorkers context.CancelFunc
	quit        chan struct{}
	wg          sync.WaitGroup
	closeOnce   sync.Once
}

// NewServer returns a memory-only service allowing up to maxConcurrent
// simultaneous solves (default 4). For durability and the full
// configuration surface use NewServerWith.
func NewServer(maxConcurrent int) *Server {
	s, err := NewServerWith(Config{MaxConcurrent: maxConcurrent})
	if err != nil {
		// Unreachable: opening a memory-only store cannot fail.
		panic(err)
	}
	return s
}

// NewServerWith returns a service for cfg, recovering any pending jobs
// from cfg.DataDir and starting the worker pool.
func NewServerWith(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Replicate > 1 {
		if strings.TrimSpace(cfg.SelfURL) == "" {
			return nil, errors.New("neos: Replicate > 1 requires SelfURL (replica ownership is computed over SelfURL+Peers)")
		}
		if !cfg.CachePersist {
			return nil, errors.New("neos: Replicate > 1 requires CachePersist (replicas are persisted results)")
		}
	}
	store, err := jobstore.Open(cfg.DataDir, jobstore.Options{
		Sync:       cfg.SyncWAL,
		MaxPending: cfg.MaxPendingJobs,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cache: solvecache.New[*SolveResponse](cfg.CacheSize),
		store: store,
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		hist:  newHistogram(),
		guard: newGuard(cfg.Overload, cfg.MaxConcurrent),
		quit:  make(chan struct{}),
	}
	warmed, err := s.openResults()
	if err != nil {
		store.Close()
		return nil, err
	}
	s.warmed = warmed
	s.peering = newPeering(cfg)
	if s.peering.replicating() {
		s.wg.Add(2)
		go s.pusher()
		go s.sweeper()
	}
	s.startWorkers()
	if cfg.JobTTL > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	s.wg.Add(1)
	go s.reaper()
	return s, nil
}

// Recovered returns how many in-flight jobs were re-queued from the WAL
// at startup.
func (s *Server) Recovered() int { return s.store.Recovered() }

// logf writes to Config.Logf when set.
func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// BeginDrain flips the readiness probe to 503 so load balancers stop
// routing here, without touching in-flight work. Call it before shutting
// the HTTP listener down.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close drains the worker pool (an in-flight solve gets the worker's drain
// grace to finish, then its job is released; queued jobs stay in the store
// for the next start) and closes the WAL.
func (s *Server) Close() error {
	s.BeginDrain()
	var err error
	s.closeOnce.Do(func() {
		s.stopWorkers()
		close(s.quit)
		s.wg.Wait()
		err = s.store.Close()
		if s.results != nil {
			if rerr := s.results.Close(); err == nil {
				err = rerr
			}
		}
	})
	return err
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Liveness: 200 while the process is up, even when browning out —
	// restarting an overloaded instance only makes the overload worse.
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/ready", s.handleReady)
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/result", s.handleResult)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("GET /blob/{hash}", s.handleBlob)
	mux.HandleFunc("GET /history/{key...}", s.handleHistory)
	mux.HandleFunc("GET /keys", s.handleKeys)
	mux.HandleFunc("GET /replicate/{key}", s.handleReplicaRead)
	mux.HandleFunc("POST /replicate/{key}", s.handleReplicate)
	mux.HandleFunc("/admin/peers", s.handleAdminPeers)
	mux.HandleFunc("POST /work/lease", s.handleWorkLease)
	mux.HandleFunc("POST /work/renew", s.handleWorkRenew)
	mux.HandleFunc("POST /work/complete", s.handleWorkComplete)
	mux.HandleFunc("POST /work/fail", s.handleWorkFail)
	return mux
}

// requestKey fingerprints a request: SHA-256 over the canonical form of
// the model (whitespace/comment/ordering-insensitive, via the AMPL AST)
// plus the solver options. The parse is returned so callers solve without
// re-parsing.
func requestKey(req *SolveRequest) (string, *ampl.Result, error) {
	parsed, err := parseRequest(req)
	if err != nil {
		return "", nil, err
	}
	h := sha256.New()
	io.WriteString(h, parsed.CanonicalForm())
	fmt.Fprintf(h, "|alg=oa|sos=%t|nodes=%d|gap=%g", req.BranchSOS, req.MaxNodes, req.RelGap)
	return hex.EncodeToString(h.Sum(nil)), parsed, nil
}

// RequestKey returns the content-addressed fingerprint of a solve request:
// the solve-cache key, the persisted-result key suffix, and the digest the
// shard router consistent-hashes on — one identity for one model, at every
// tier of the fleet.
func RequestKey(req *SolveRequest) (string, error) {
	key, _, err := requestKey(req)
	return key, err
}

// solve is the one solve path, for /solve and async jobs alike: a cache
// hit, else join the key's in-flight solve or lead it (see lead), so a herd
// of identical requests gets one answer — full quality, degraded, or one
// refusal (a shedError). Request errors (an unknown algorithm, a model
// that does not parse) are answered uncached with status "error", before
// the solver or its breaker see them. ctx may carry the client's
// propagated deadline; coalesced followers share the leader's budget,
// which is safe because deadline results are never cached.
func (s *Server) solve(ctx context.Context, req *SolveRequest, admit bool) (*SolveResponse, error) {
	key, parsed, err := requestKey(req)
	if err != nil {
		return &SolveResponse{Status: "error", Error: err.Error()}, nil
	}
	// Cache hits are free and always served, whatever the overload state.
	if resp, ok := s.cache.Get(key); ok {
		return resp, nil
	}
	resp, err, _ := s.flight.Do(key, func() (*SolveResponse, error) {
		return s.lead(ctx, key, parsed, req, admit)
	})
	return resp, err
}

// lead is the flight leader's ladder. It asks the ring siblings first —
// before the breaker, so a sibling's full-quality answer beats a degraded
// one even while the breaker is open, and before admission, so the consult
// never occupies a solve slot. A peer-warm fill persists locally through
// the cache backend but never replicates onward: only fresh solver fills
// push, so replicas cannot circulate. Then, for /solve (admit), the breaker
// and admission control; refused, the leader walks the brownout rung
// inside the flight. Async attempts skip both (their workers gate on the
// breaker before leasing). Last the solver semaphore, shared by both
// paths, and the solve.
func (s *Server) lead(ctx context.Context, key string, parsed *ampl.Result, req *SolveRequest, admit bool) (*SolveResponse, error) {
	if resp := s.consult(ctx, key); resp != nil {
		return resp, nil
	}
	if admit {
		g := s.guard
		if !g.brk.Allow() {
			return s.brownout(key, parsed, req, "circuit breaker open", &g.shedBreaker)
		}
		release, err := g.adm.Acquire(ctx)
		switch {
		case errors.Is(err, overload.ErrSaturated):
			return s.brownout(key, parsed, req, "solve queue full", &g.shedQueue)
		case err != nil:
			// The propagated deadline cannot be met given the observed solve
			// latency and queue depth: shed now, before burning a core.
			return nil, shedError("deadline cannot be met")
		}
		defer release()
	}
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	sctx := ctx
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	start := time.Now()
	resp := solveParsedContext(sctx, parsed, req)
	elapsed := time.Since(start)
	s.hist.observe(elapsed.Seconds())
	s.guard.recordSolve(resp, elapsed, s.cfg.SolveTimeout)
	s.fill(key, resp)
	return resp, nil
}

// fill caches a fresh solver answer that clears the persistence bar and
// replicates it to the key's other owners.
func (s *Server) fill(key string, resp *SolveResponse) {
	if persistable(resp) {
		s.cache.Put(key, resp)
		s.peering.replicateFill(key, resp)
	}
}

// solveJob is an in-process attempt's solve. It never takes an admission
// slot (admit false), so it can only be refused by joining a /solve flight
// whose leader was refused; it then returns nil and the worker hands the
// job back without using up the attempt, so a job never finishes with a
// degraded or shed answer.
func (s *Server) solveJob(ctx context.Context, req *SolveRequest) *SolveResponse {
	resp, err := s.solve(ctx, req, false)
	if err != nil || resp.Quality != "" {
		return nil
	}
	return resp
}

// requestBudget extracts the client's propagated deadline: the
// X-Request-Deadline-Ms header when present, else the request's
// timeout_ms field (0 = none). The server-wide SolveTimeout still caps the
// actual solve.
func requestBudget(r *http.Request, req *SolveRequest) (time.Duration, error) {
	if h := r.Header.Get("X-Request-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return 0, fmt.Errorf("bad X-Request-Deadline-Ms %q", h)
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	if req.TimeoutMs > 0 {
		return time.Duration(req.TimeoutMs) * time.Millisecond, nil
	}
	return 0, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	budget, err := requestBudget(r, req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The budget context derives from Background, not r.Context(): a
	// coalesced solve must not die with one disconnecting client.
	ctx := context.Background()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	resp, err := s.solve(ctx, req, true)
	if err != nil {
		s.shed(w, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReady is the readiness probe: 503 while draining, while the
// breaker is open, or while the admission queue is saturated, so load
// balancers stop routing to a browning-out instance. Liveness (/health)
// stays 200 throughout.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.guard.brk.State() == overload.Open {
		http.Error(w, "circuit breaker open", http.StatusServiceUnavailable)
		return
	}
	if s.guard.adm.Saturated() {
		http.Error(w, "solve queue saturated", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	payload, err := json.Marshal(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	job, err := s.store.Enqueue(payload, s.cfg.MaxAttempts)
	if errors.Is(err, jobstore.ErrQueueFull) {
		s.guard.shedJobs.Add(1)
		s.shed(w, "job queue full")
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int64{"id": job.ID})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad or missing id", http.StatusBadRequest)
		return
	}
	job, ok := s.store.Get(id)
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
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
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	status := jobstore.Status(r.URL.Query().Get("status"))
	switch status {
	case "", jobstore.Queued, jobstore.Running, jobstore.Done, jobstore.Failed:
	default:
		http.Error(w, "unknown status filter", http.StatusBadRequest)
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

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	counts := s.store.Counts()
	m := Metrics{
		Cache:  s.cache.Stats(),
		Solves: s.hist.snapshot(),
	}
	m.Jobs.QueueDepth = counts[jobstore.Queued]
	m.Jobs.Recovered = s.store.Recovered()
	m.Jobs.WALBytes = s.store.WALSize()
	ls := s.store.LeaseStats()
	m.Jobs.Leased = ls.Leased
	m.Jobs.ActiveWorkers = ls.ActiveWorkers
	m.Jobs.LeaseReclaims = ls.Reclaims
	m.Jobs.StaleRejects = ls.StaleRejects
	m.Jobs.DuplicateCompletes = s.dupCompletes.Load()
	m.Jobs.WorkerPanics = s.workerPanics.Load()
	m.Jobs.Counts = map[string]int{}
	for st, n := range counts {
		m.Jobs.Counts[string(st)] = n
	}
	m.Overload = s.overloadMetrics()
	m.Store = s.storeMetrics()
	m.Peer = s.peerMetrics()
	m.Replication = s.replicationMetrics()
	writeJSON(w, http.StatusOK, m)
}

// startWorkers starts the in-process pool: AsyncWorkers copies of the one
// Worker loop, pulling straight from this server's queue. They solve
// through solveJob (cache, flight and peers, no admission slot), abandon
// an attempt at JobTimeout, wake on the queue's ready signal instead of
// polling, and while the breaker is open re-check it every breakerPoll
// instead of leasing.
func (s *Server) startWorkers() {
	ctx, stop := context.WithCancel(context.Background())
	s.stopWorkers = stop
	solve := s.solveJob
	if s.cfg.solveHook != nil {
		solve = s.cfg.solveHook
	}
	poll := s.guard.breakerPoll()
	for i := 0; i < s.cfg.AsyncWorkers; i++ {
		w, _ := newWorker(s, WorkerConfig{
			ID:             fmt.Sprintf("local-%d", i),
			BaseBackoff:    poll,
			MaxBackoff:     poll,
			SolveFn:        solve,
			attemptTimeout: s.cfg.JobTimeout,
			ready:          s.store.Ready(),
			panics:         &s.workerPanics,
		})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = w.Run(ctx)
		}()
	}
}

// reaper periodically requeues jobs whose lease lapsed — a crashed remote
// worker, a renewal partition, or a panicked local worker. Lease() also
// reaps inline, so the ticker only bounds reclaim latency when no worker
// is polling.
func (s *Server) reaper() {
	defer s.wg.Done()
	interval := s.cfg.LeaseTTL / 4
	if interval > time.Second {
		interval = time.Second
	}
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			_, _ = s.store.ReapExpired()
		}
	}
}

// janitor evicts completed jobs past their TTL.
func (s *Server) janitor() {
	defer s.wg.Done()
	interval := s.cfg.JobTTL / 4
	if interval > time.Minute {
		interval = time.Minute
	}
	if interval < time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			_, _ = s.store.EvictCompleted(s.cfg.JobTTL)
			if s.results != nil && s.cfg.StoreKeepHistory > 0 {
				_, _, _ = s.results.GC(s.cfg.StoreKeepHistory)
			}
		}
	}
}

func decodeRequest(w http.ResponseWriter, r *http.Request) (*SolveRequest, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	var req SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if strings.TrimSpace(req.Model) == "" {
		http.Error(w, "empty model", http.StatusBadRequest)
		return nil, false
	}
	return &req, true
}
