package neos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hslb/internal/ampl"
	"hslb/internal/clock"
	"hslb/internal/jobstore"
	"hslb/internal/overload"
	"hslb/internal/resultstore"
	"hslb/internal/solvecache"
)

// Config tunes the solve service.
type Config struct {
	// MaxConcurrent is the number of solver slots, shared by /solve
	// leaders and async job attempts (default 4).
	MaxConcurrent int
	// CacheSize is the solve-cache capacity in entries
	// (default solvecache.DefaultCapacity).
	CacheSize int
	// DataDir is the directory for the durable job WAL; empty runs the
	// queue in memory only.
	DataDir string
	// Sync fsyncs the job WAL on every job transition and the result store
	// (chunks, their directories, the heads log) on every commit.
	Sync bool
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
	// clock times every budget, timeout, lease and background loop of the
	// server, its job store and its in-process workers (nil = clock.Wall).
	clock clock.Clock
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
	c.clock = clock.Or(c.clock)
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
	hist   *histogram
	// guard is the overload-protection stack; its admission slots are the
	// solver slots.
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
// from cfg.DataDir and starting the worker pool. Shards reach each other
// over HTTP.
func NewServerWith(cfg Config) (*Server, error) {
	return newServer(cfg, &httpTransfer{})
}

// newServer is NewServerWith over the shard-to-shard transfer tr.
func newServer(cfg Config, tr transfer) (*Server, error) {
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
		Sync:       cfg.Sync,
		MaxPending: cfg.MaxPendingJobs,
		Clock:      cfg.clock,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cache: solvecache.New[*SolveResponse](cfg.CacheSize),
		store: store,
		hist:  newHistogram(),
		guard: newGuard(cfg.Overload, cfg.MaxConcurrent, cfg.clock),
		quit:  make(chan struct{}),
	}
	warmed, err := s.openResults()
	if err != nil {
		store.Close()
		return nil, err
	}
	s.warmed = warmed
	s.peering = newPeering(cfg, tr)
	if s.peering.replicating() {
		s.wg.Add(2)
		go s.pusher()
		go s.sweeper()
	}
	s.startWorkers()
	if cfg.JobTTL > 0 {
		interval := cfg.JobTTL / 4
		if interval > time.Minute {
			interval = time.Minute
		}
		if interval < time.Second {
			interval = time.Second
		}
		s.wg.Add(1)
		go s.every(cfg.clock.NewTicker(interval), s.janitor)
	}
	interval := cfg.LeaseTTL / 4
	if interval > time.Second {
		interval = time.Second
	}
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	s.wg.Add(1)
	go s.every(cfg.clock.NewTicker(interval), func() { _, _ = s.store.ReapExpired() })
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

// ready is the readiness probe: unavailable while draining, while the
// breaker is open, or while the admission queue is saturated, so load
// balancers stop routing to a browning-out instance. Liveness (/health)
// stays up throughout.
func (s *Server) ready() error {
	switch {
	case s.draining.Load():
		return unavailable("draining")
	case s.guard.brk.State() == overload.Open:
		return unavailable("circuit breaker open")
	case s.guard.adm.Saturated():
		return unavailable("solve queue saturated")
	}
	return nil
}

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

// badRequest is a malformed request (400 on the wire), the text its reason.
type badRequest string

func (e badRequest) Error() string { return string(e) }

// unavailable is a server that should not take the request now (503 with
// Retry-After on the wire), the text its reason.
type unavailable string

func (e unavailable) Error() string { return string(e) }

// solve is the one solve path, for /solve and async jobs alike. The
// request's key is computed once (requestKey, memoized per process); a
// request error (an unknown algorithm, a model that does not parse) is
// answered uncached with status "error", so the solver and its breaker
// never see it. Then a cache hit, else join the key's in-flight solve or
// lead it (see fly), so a herd of identical requests gets one answer —
// full quality, degraded, or one refusal (a shedError). ctx may carry the
// client's propagated deadline; coalesced followers share the leader's
// budget, which is safe because deadline results are never cached.
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
		return s.fly(ctx, key, parsed, req, admit)
	})
	return resp, err
}

// fly is what a key's flight runs after solve's cache miss. It looks in the
// cache once more, without counting a second miss: a request that missed
// just before the previous flight's leader filled the cache, and reached
// flight.Do after that flight ended, leads a flight of its own and is
// answered here instead of solving again. When the key came from the memo
// only the flight leader parses the model, so neither a hit nor a follower
// does. Then lead.
func (s *Server) fly(ctx context.Context, key string, parsed *ampl.Result, req *SolveRequest, admit bool) (*SolveResponse, error) {
	if resp, ok := s.cache.Peek(key); ok {
		return resp, nil
	}
	if parsed == nil {
		p, err := ampl.Parse(req.Model)
		if err != nil {
			return &SolveResponse{Status: "error", Error: err.Error()}, nil
		}
		parsed = p
	}
	return s.lead(ctx, key, parsed, req, admit)
}

// lead is the flight leader's ladder. It asks the ring siblings first —
// before the breaker, so a sibling's full-quality answer beats a degraded
// one even while the breaker is open, and before taking a solver slot, so
// the consult never occupies one. A peer-warm fill persists locally through
// the cache backend but never replicates onward: only fresh solver fills
// push, so replicas cannot circulate. Then a solver slot from the one pool.
// For /solve (admit) that is the breaker and admission control; refused,
// the leader walks the brownout rung inside the flight. An async attempt
// (its worker gated on the breaker before leasing) takes a slot outside the
// queue bound and the deadline test, waiting until one frees or its context
// ends: at the job's own deadline it answers "deadline", and cancelled (lease
// lost, drain) it is refused. Last the solve.
func (s *Server) lead(ctx context.Context, key string, parsed *ampl.Result, req *SolveRequest, admit bool) (*SolveResponse, error) {
	if resp := s.consult(ctx, key); resp != nil {
		return resp, nil
	}
	g := s.guard
	var release func()
	var err error
	if admit {
		if !g.brk.Allow() {
			return s.brownout(key, parsed, req, "circuit breaker open", &g.shedBreaker)
		}
		release, err = g.adm.Acquire(ctx)
		switch {
		case errors.Is(err, overload.ErrSaturated):
			return s.brownout(key, parsed, req, "solve queue full", &g.shedQueue)
		case err != nil:
			// The propagated deadline cannot be met given the observed solve
			// latency and queue depth: shed now, before burning a core.
			return nil, shedError("deadline cannot be met")
		}
	} else if release, err = g.adm.Take(ctx); errors.Is(err, context.DeadlineExceeded) {
		// The job's own deadline (timeout_ms) passed before a slot freed: the
		// terminal answer of a solve that ran out of time with no incumbent,
		// never cached, so the attempt is used and the job completes.
		return &SolveResponse{Status: "deadline", Error: "no solver slot before the deadline"}, nil
	} else if err != nil {
		// The attempt was cancelled (lease lost, drain) before a slot freed:
		// a refusal, which hands the job back.
		return nil, shedError("no solver slot before the attempt was cancelled")
	}
	defer release()
	// start precedes the budget's deadline, so a solve that ran the whole
	// budget out measures at least SolveTimeout and counts as one.
	start := s.cfg.clock.Now()
	sctx := ctx
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = s.cfg.clock.WithTimeout(sctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	resp := solveParsedContext(sctx, parsed, req)
	elapsed := s.cfg.clock.Now().Sub(start)
	s.hist.observe(elapsed.Seconds())
	g.recordSolve(resp, elapsed, s.cfg.SolveTimeout)
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

// solveJob is an in-process attempt's solve. It takes its solver slot
// outside the admission queue (admit false), so it can only be refused by
// joining a /solve flight whose leader was refused, or by its attempt being
// cancelled before a slot freed; it then returns nil and the worker hands
// the job back without using up the attempt, so a job never finishes with a
// degraded or shed answer. A request error is the job's permanent "error"
// answer.
func (s *Server) solveJob(ctx context.Context, req *SolveRequest) *SolveResponse {
	resp, err := s.solve(ctx, req, false)
	if err != nil || resp.Quality != "" {
		return nil
	}
	return resp
}

// submit enqueues a job, refusing it with a shedError when the queue is at
// MaxPendingJobs.
func (s *Server) submit(req *SolveRequest) (int64, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	job, err := s.store.Enqueue(payload, s.cfg.MaxAttempts)
	if errors.Is(err, jobstore.ErrQueueFull) {
		s.guard.shedJobs.Add(1)
		return 0, shedError("job queue full")
	}
	if err != nil {
		return 0, err
	}
	return job.ID, nil
}

// startWorkers starts the in-process pool: AsyncWorkers copies of the one
// Worker loop, pulling straight from this server's queue. They solve
// through solveJob (cache, flight, peers, then a solver slot outside the
// admission queue), abandon an attempt at JobTimeout, wake on the queue's
// ready signal instead of polling, and while the breaker is open re-check
// it every breakerPoll instead of leasing.
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
			clock:          s.cfg.clock,
		})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = w.Run(ctx)
		}()
	}
}

// every runs f on every tick until Close. The reaper requeues jobs whose
// lease lapsed — a crashed remote worker, a renewal partition, or a
// panicked local worker; Lease() also reaps inline, so its ticker only
// bounds reclaim latency when no worker is polling. The janitor evicts
// completed jobs past JobTTL and truncates store history.
func (s *Server) every(tick clock.Timer, f func()) {
	defer s.wg.Done()
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C():
			f()
		}
	}
}

// janitor evicts completed jobs past their TTL.
func (s *Server) janitor() {
	_, _ = s.store.EvictCompleted(s.cfg.JobTTL)
	if s.results != nil && s.cfg.StoreKeepHistory > 0 {
		_, _, _ = s.results.GC(s.cfg.StoreKeepHistory)
	}
}
