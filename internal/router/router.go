package router

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hslb/internal/clock"
	"hslb/internal/neos"
	"hslb/internal/solvecache"
)

// maxBody mirrors the shard's request cap; the router rejects oversized
// bodies itself rather than shipping them across the fleet first.
const maxBody = 1 << 20

// maxProxyResponse bounds how much of a shard response is buffered before
// relaying. Solve responses are small JSON; 8 MiB is far above any real one.
const maxProxyResponse = 8 << 20

// Config tunes a Router.
type Config struct {
	// Shards are the hslbserver base URLs forming the ring (required).
	Shards []string
	// LoadFactor is the bounded-load headroom c > 1 (default 1.25): a
	// shard carrying more than c × its fair share of in-flight requests is
	// demoted to last resort for new digests.
	LoadFactor float64
	// HealthInterval is the /ready probe cadence (default 250ms). Each
	// round is jittered by up to ±25% so multiple routers fronting the
	// same shards don't probe in lockstep.
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 1s).
	HealthTimeout time.Duration
	// HealthFailThreshold is how many consecutive failed probes demote a
	// healthy shard (default 3): one dropped probe — a GC pause, a
	// transient timeout — must not re-route the shard's whole key range.
	// Recovery stays immediate: a single good probe promotes. Transport
	// failures on real proxied requests still demote at once; those are
	// live traffic failing, not a probe flap.
	HealthFailThreshold int
	// HTTP is the client used for proxying and probing; nil uses a
	// dedicated client with sane transport defaults.
	HTTP *http.Client
	// Logf receives health transitions and failovers; nil discards them.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.HealthFailThreshold <= 0 {
		c.HealthFailThreshold = 3
	}
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	return c
}

// Router is the fleet front tier. Create with New, serve Handler, release
// with Close.
type Router struct {
	cfg  Config
	ring *Ring

	routed    atomic.Uint64 // requests forwarded to a shard
	failovers atomic.Uint64 // attempts retried on the next shard
	spills    atomic.Uint64 // requests placed off their home shard by bounded load
	noShard   atomic.Uint64 // 503s for want of any healthy shard
	pass429   atomic.Uint64 // shard 429s relayed verbatim
	pass503   atomic.Uint64 // shard 503s relayed verbatim
	resizes   atomic.Uint64 // SetShards calls via the admin surface

	// perShard is the routed-count per shard ID, registered lazily so
	// shards added by a live SetShards count from their first request;
	// counters for removed shards are retained (history, not state).
	perShardMu sync.Mutex
	perShard   map[string]*atomic.Uint64

	quit      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a router over cfg.Shards and runs one synchronous probe round
// so routing works the moment it returns; after that a background loop
// re-probes every HealthInterval.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: at least one shard required")
	}
	shards := make([]*Shard, len(cfg.Shards))
	seen := map[string]bool{}
	for i, u := range cfg.Shards {
		u = strings.TrimRight(u, "/")
		if u == "" || seen[u] {
			return nil, fmt.Errorf("router: empty or duplicate shard URL %q", cfg.Shards[i])
		}
		seen[u] = true
		shards[i] = &Shard{ID: u, URL: u}
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(shards, cfg.LoadFactor),
		perShard: map[string]*atomic.Uint64{},
		quit:     make(chan struct{}),
	}
	rt.probeAll()
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		close(rt.quit)
		rt.wg.Wait()
	})
}

// Ring exposes the placement ring (tests and /metrics).
func (rt *Router) Ring() *Ring { return rt.ring }

func (rt *Router) logf(format string, args ...interface{}) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// healthLoop re-probes every HealthInterval, jittered by up to ±25% per
// round so a fleet of routers doesn't probe the shards in lockstep.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	rng := rand.New(rand.NewSource(clock.Wall.Now().UnixNano()))
	for {
		d := rt.cfg.HealthInterval
		if half := int64(d) / 2; half > 0 {
			d += time.Duration(rng.Int63n(half)) - d/4
		}
		timer := clock.Wall.NewTimer(d)
		select {
		case <-rt.quit:
			timer.Stop()
			return
		case <-timer.C():
			rt.probeAll()
		}
	}
}

// probeAll checks every shard's /ready concurrently. Promotion is
// immediate — one good probe and the shard is routable — but demotion is
// flap-damped: only HealthFailThreshold consecutive failures take a
// healthy shard (and with it its whole key range) out of the ring.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, s := range rt.ring.Shards() {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			if rt.probe(s) {
				s.failStreak.Store(0)
				if s.setHealthy(true) {
					rt.logf("shard %s is ready", s.URL)
				}
				return
			}
			streak := s.failStreak.Add(1)
			if int(streak) < rt.cfg.HealthFailThreshold {
				if s.Healthy() {
					rt.logf("shard %s failed probe %d/%d (still routed)",
						s.URL, streak, rt.cfg.HealthFailThreshold)
				}
				return
			}
			if s.setHealthy(false) {
				rt.logf("shard %s is down after %d consecutive failed probes", s.URL, streak)
			}
		}(s)
	}
	wg.Wait()
}

func (rt *Router) probe(s *Shard) bool {
	ctx, cancel := clock.Wall.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+"/ready", nil)
	if err != nil {
		return false
	}
	resp, err := rt.cfg.HTTP.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Handler returns the front-tier HTTP routes.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/ready", rt.handleReady)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/solve", rt.handleRouted)
	mux.HandleFunc("/submit", rt.handleRouted)
	mux.HandleFunc("/result", rt.handleResult)
	mux.HandleFunc("/admin/shards", rt.handleAdminShards)
	return mux
}

// shardCounter returns the routed-count for a shard ID, registering it
// lazily — safe for shards added by a live SetShards after construction.
func (rt *Router) shardCounter(id string) *atomic.Uint64 {
	rt.perShardMu.Lock()
	defer rt.perShardMu.Unlock()
	c := rt.perShard[id]
	if c == nil {
		c = &atomic.Uint64{}
		rt.perShard[id] = c
	}
	return c
}

// handleReady reports 503 until at least one shard is ready: a router with
// no backends should fall out of its own load balancer too.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	for _, s := range rt.ring.Shards() {
		if s.Healthy() {
			fmt.Fprintln(w, "ready")
			return
		}
	}
	http.Error(w, "no healthy shard", http.StatusServiceUnavailable)
}

// requestDigest fingerprints the request body for placement. Parseable
// models use the canonical solve key — the same digest the shard caches
// and persists under — so identical models always meet their cached
// results. The key is memoized per process by the body's exact bytes, so a
// repeated body is placed without parsing its model again. Unparseable
// bodies hash raw: the chosen shard will produce the canonical error, and
// identical garbage at least routes consistently.
func requestDigest(body []byte) string {
	var req neos.SolveRequest
	if err := json.Unmarshal(body, &req); err == nil {
		if key, err := neos.RequestKey(&req); err == nil {
			return key
		}
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// handleRouted proxies /solve and /submit to the digest's shard, failing
// over down the rendezvous order on transport errors. Each request gets
// exactly one terminal outcome: a relayed shard response, or one
// router-level error after every candidate failed.
func (rt *Router) handleRouted(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	digest := requestDigest(body)

	// The client's propagated deadline bounds the whole proxy attempt
	// chain; past it, failing over cannot produce an answer in time.
	ctx := r.Context()
	if h := r.Header.Get(deadlineHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			var cancel context.CancelFunc
			ctx, cancel = clock.Wall.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}
	}

	candidates, spilled := rt.ring.Pick(digest)
	if len(candidates) == 0 {
		rt.shedNoShard(w)
		return
	}
	if spilled {
		rt.spills.Add(1)
	}
	for i, s := range candidates {
		if i > 0 {
			rt.failovers.Add(1)
			rt.logf("failover %s -> %s (digest %.12s)", candidates[i-1].URL, s.URL, digest)
		}
		if done := rt.tryShard(ctx, w, r, s, body); done {
			rt.shardCounter(s.ID).Add(1)
			rt.routed.Add(1)
			return
		}
		if ctx.Err() != nil {
			break
		}
	}
	rt.shedNoShard(w)
}

// deadlineHeader is the fleet's deadline-propagation header, relayed
// verbatim so the shard sheds deadline-infeasible work itself.
const deadlineHeader = "X-Request-Deadline-Ms"

// tryShard sends one proxy attempt. It returns true when a shard response
// (any status — 429s and 503s relay verbatim, hints intact) was written to
// the client, false when the attempt died on transport and the caller
// should fail over.
func (rt *Router) tryShard(ctx context.Context, w http.ResponseWriter, r *http.Request, s *Shard, body []byte) bool {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.URL+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if h := r.Header.Get(deadlineHeader); h != "" {
		req.Header.Set(deadlineHeader, h)
	}
	resp, err := rt.cfg.HTTP.Do(req)
	if err != nil {
		// Transport failure: the shard is unreachable right now. Mark it
		// down immediately (the health loop will bring it back) and let
		// the caller fail over.
		if s.setHealthy(false) {
			rt.logf("shard %s marked down after transport error: %v", s.URL, err)
		}
		return false
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyResponse))
	resp.Body.Close()
	if err != nil {
		// Died mid-response; nothing was written to the client yet, so
		// failover is still safe.
		if s.setHealthy(false) {
			rt.logf("shard %s marked down mid-response: %v", s.URL, err)
		}
		return false
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		rt.pass429.Add(1)
	case http.StatusServiceUnavailable:
		rt.pass503.Add(1)
	}
	// Relay the shard's response verbatim: status, headers (Retry-After
	// hints included — the shard knows its queue, the router does not),
	// and body.
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(payload)
	return true
}

// shedNoShard is the router-level terminal outcome when no shard could
// take the request. Unlike relayed shard sheds, this Retry-After is
// router-synthesized: one health interval, when a probe may have revived
// something.
func (rt *Router) shedNoShard(w http.ResponseWriter) {
	rt.noShard.Add(1)
	retry := rt.cfg.HealthInterval
	if retry < time.Second {
		retry = time.Second
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int((retry+time.Second-1)/time.Second)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(map[string]interface{}{
		"error":          "no healthy shard available",
		"retry_after_ms": retry.Milliseconds(),
	})
}

// handleResult fans a /result poll out across the shards: job IDs are
// shard-local, so the router asks everyone and relays the first shard that
// knows the job (404s mean "not mine").
func (rt *Router) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	for _, s := range rt.ring.Shards() {
		if !s.Healthy() {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
			s.URL+"/result?"+r.URL.RawQuery, nil)
		if err != nil {
			continue
		}
		resp, err := rt.cfg.HTTP.Do(req)
		if err != nil {
			continue
		}
		payload, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyResponse))
		resp.Body.Close()
		if err != nil || resp.StatusCode == http.StatusNotFound {
			continue
		}
		h := w.Header()
		for k, vs := range resp.Header {
			h[k] = vs
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(payload)
		return
	}
	http.Error(w, "unknown job", http.StatusNotFound)
}

// ShardMetrics is one shard's row in /metrics.
type ShardMetrics struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Inflight int64  `json:"inflight"`
	Routed   uint64 `json:"routed"`
}

// Metrics is the router's /metrics document.
type Metrics struct {
	Shards []ShardMetrics `json:"shards"`
	// Routed counts requests that reached a terminal shard response;
	// Failovers counts attempts retried on the next shard in rendezvous
	// order; Spills counts placements moved off the digest's home shard by
	// the bounded-load rule.
	Routed    uint64 `json:"routed"`
	Failovers uint64 `json:"failovers"`
	Spills    uint64 `json:"spills"`
	// Passthrough429/503 count shard shed responses relayed verbatim
	// (hints intact); NoShard503 counts router-synthesized 503s when no
	// shard was available at all.
	Passthrough429 uint64 `json:"passthrough_429"`
	Passthrough503 uint64 `json:"passthrough_503"`
	NoShard503     uint64 `json:"no_shard_503"`
	// Resizes counts live shard-set replacements via POST /admin/shards.
	Resizes uint64 `json:"resizes"`
	// KeyMemo counts the process's request-key memo (neos.KeyMemoStats):
	// a hit is a body placed without parsing its model again.
	KeyMemo solvecache.Stats `json:"key_memo"`
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	m := Metrics{
		Routed:         rt.routed.Load(),
		Failovers:      rt.failovers.Load(),
		Spills:         rt.spills.Load(),
		Passthrough429: rt.pass429.Load(),
		Passthrough503: rt.pass503.Load(),
		NoShard503:     rt.noShard.Load(),
		Resizes:        rt.resizes.Load(),
		KeyMemo:        neos.KeyMemoStats(),
	}
	for _, s := range rt.ring.Shards() {
		m.Shards = append(m.Shards, ShardMetrics{
			ID: s.ID, URL: s.URL, Healthy: s.Healthy(),
			Inflight: s.Inflight(), Routed: rt.shardCounter(s.ID).Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(m)
}
