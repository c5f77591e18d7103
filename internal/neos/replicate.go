package neos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"hslb/internal/backoff"
)

// R-way result replication with anti-entropy repair. With Config.Replicate
// R > 1 every full-quality solve result is owned by the top R members of
// its key's rendezvous order over the fleet membership (this server's
// SelfURL plus its Peers) — exactly the router's failover order, so when a
// shard dies the router's next choice for a digest is precisely the shard
// holding its replica.
//
// Replication is layered, eventually consistent, and always validating:
//
//   - Write path: a solver fill (local or via a remote worker's
//     /work/complete) enqueues a best-effort push of the result to the
//     other R−1 owners — POST /replicate/{key} — through a bounded retry
//     queue. Peer-warm fills and replication ingests never push, so a
//     result cannot circulate forever.
//   - Ingest: POST /replicate/{key} re-validates the persistence bar
//     (persistable: never "error"/"deadline"/degraded) before warming the
//     cache, which writes through to the result store. A replica is
//     trusted for bytes, not judgement.
//   - Anti-entropy: a background sweeper (kicked early on membership
//     changes) lists each peer's persisted keys once, re-derives each
//     key's owners, pushes local results the peer owns but lacks, and
//     pulls listed keys this server owns but lacks — so a ring resize
//     converges the replica sets without any request traffic.
//
// Consistency contract: results are immutable for a given key (solves are
// deterministic), so replicas can only be missing, never conflicting;
// convergence is therefore set union under the validation bar.

// maxPushAttempts bounds retries of one replication push before the
// sweeper inherits the repair.
const maxPushAttempts = 8

// replQueueCap bounds the push retry queue; beyond it pushes are dropped
// (counted) and anti-entropy heals the gap.
const replQueueCap = 1024

// defaultAntiEntropyInterval is the sweeper cadence when
// Config.AntiEntropyInterval is unset.
const defaultAntiEntropyInterval = 60 * time.Second

// repPush is one queued replication push.
type repPush struct {
	key      string
	target   string
	payload  []byte
	attempts int
}

// replicator is the replication state hung off a Server.
type replicator struct {
	selfURL string
	factor  int
	http    *http.Client

	queue chan repPush
	kick  chan struct{} // wakes the sweeper early (membership change)

	pushes      atomic.Uint64 // successful pushes to replica owners
	pushErrors  atomic.Uint64 // failed push attempts (before any retry)
	pushRetries atomic.Uint64 // re-enqueued pushes
	dropped     atomic.Uint64 // pushes abandoned (queue full or attempts exhausted)
	ingested    atomic.Uint64 // replicas accepted on POST /replicate
	rejects     atomic.Uint64 // replicas refused (validation bar, bad key)
	sweeps      atomic.Uint64 // completed anti-entropy sweeps
	sweepPushed atomic.Uint64 // results pushed to under-replicated owners by sweeps
	sweepPulled atomic.Uint64 // results fetched for newly owned keys by sweeps
}

func newReplicator(cfg Config) *replicator {
	return &replicator{
		selfURL: strings.TrimRight(strings.TrimSpace(cfg.SelfURL), "/"),
		factor:  cfg.Replicate,
		// Replication is background traffic: a generous per-call timeout,
		// independent of the latency-critical PeerBudget.
		http:  &http.Client{Timeout: 5 * time.Second},
		queue: make(chan repPush, replQueueCap),
		kick:  make(chan struct{}, 1),
	}
}

// members returns the fleet membership (self + peers) as the replication
// scoring universe.
func (s *Server) members() []string {
	return append(s.peering.peerList(), s.repl.selfURL)
}

// replicaOwners returns the key's owner set: the top Replicate members of
// its rendezvous order. With fewer members than R, everyone owns everything.
func (s *Server) replicaOwners(key string) []string {
	order := rendezvousOrder(s.members(), key)
	if len(order) > s.repl.factor {
		order = order[:s.repl.factor]
	}
	return order
}

// replicateFill enqueues pushes of a fresh solver fill to the key's other
// replica owners. Only fill calls this, after the persistence bar — never
// peer warms or replication ingests, so pushes cannot loop.
func (s *Server) replicateFill(key string, resp *SolveResponse) {
	r := s.repl
	if r == nil {
		return
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		return
	}
	for _, owner := range s.replicaOwners(key) {
		if owner == r.selfURL {
			continue
		}
		r.enqueue(repPush{key: key, target: owner, payload: payload, attempts: 0})
	}
}

// enqueue adds a push to the bounded retry queue, dropping (counted) when
// full — anti-entropy repairs dropped pushes on the next sweep.
func (r *replicator) enqueue(p repPush) {
	select {
	case r.queue <- p:
	default:
		r.dropped.Add(1)
	}
}

// push delivers one replica: POST {target}/replicate/{key}.
func (r *replicator) push(ctx context.Context, p repPush) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		p.target+"/replicate/"+p.key, bytes.NewReader(p.payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.http.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replicate: %s: status %d", p.target, resp.StatusCode)
	}
	return nil
}

// pusher drains the replication queue, retrying failed pushes with
// exponential backoff until maxPushAttempts, then leaving the repair to
// the sweeper.
func (s *Server) pusher() {
	defer s.wg.Done()
	r := s.repl
	for {
		var p repPush
		select {
		case <-s.quit:
			return
		case p = <-r.queue:
		}
		err := r.push(context.Background(), p)
		if err == nil {
			r.pushes.Add(1)
			continue
		}
		r.pushErrors.Add(1)
		p.attempts++
		if p.attempts >= maxPushAttempts {
			r.dropped.Add(1)
			s.logf("replication push of %.12s… to %s abandoned after %d attempts: %v",
				p.key, p.target, p.attempts, err)
			continue
		}
		// Back off before the retry; a dead owner must not spin the queue.
		select {
		case <-s.quit:
			return
		case <-time.After(backoff.Delay(100*time.Millisecond, 2*time.Second, p.attempts-1)):
		}
		r.pushRetries.Add(1)
		r.enqueue(p)
	}
}

// sweeper runs anti-entropy at AntiEntropyInterval, and immediately when
// kicked by a membership change.
func (s *Server) sweeper() {
	defer s.wg.Done()
	interval := s.cfg.AntiEntropyInterval
	if interval == 0 {
		interval = defaultAntiEntropyInterval
	}
	// A negative interval disables periodic sweeps (tests drive sweepOnce
	// directly); kicks still run one so membership changes repair.
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.quit:
			return
		case <-tick:
			s.sweepOnce()
		case <-s.repl.kick:
			s.sweepOnce()
		}
	}
}

// kickSweep schedules an immediate anti-entropy sweep (member change).
func (s *Server) kickSweep() {
	if s.repl == nil {
		return
	}
	select {
	case s.repl.kick <- struct{}{}:
	default:
	}
}

// sweepOnce runs one anti-entropy pass, one peer at a time, driven by the
// peer's single GET /keys?prefix=solve/ listing: push every local result
// the peer owns but lacks, then pull every listed key this server owns
// but lacks (it joined the ring, or inherited the range in a resize). A
// converged pair costs one request per peer; each repair adds its own
// transfer. Ownership is re-derived from the current membership — no
// cached "confirmed" set — so a sweep after a resize converges the
// replica sets even if earlier sweeps ran against older rings.
func (s *Server) sweepOnce() {
	r := s.repl
	if r == nil || s.results == nil {
		return
	}
	ctx := context.Background()
	local := s.results.KeysWithPrefix(solveKeyPrefix)
	for _, peer := range s.peering.peerList() {
		select {
		case <-s.quit:
			return
		default:
		}
		var listed []string
		if _, err := getJSON(ctx, r.http, peer+"/keys?prefix="+solveKeyPrefix, &listed); err != nil {
			continue // peer unreachable or misbehaving; next sweep retries
		}
		held := make(map[string]bool, len(listed))
		for _, full := range listed {
			held[full] = true
		}

		for _, full := range local {
			key := strings.TrimPrefix(full, solveKeyPrefix)
			if held[full] || !slices.Contains(s.replicaOwners(key), peer) {
				continue
			}
			data, _, err := s.results.HeadValue(full)
			if err != nil {
				continue // local corruption surfaces in fsck, never replicates
			}
			var resp SolveResponse
			if json.Unmarshal(data, &resp) != nil || !persistable(&resp) {
				continue
			}
			if r.push(ctx, repPush{key: key, target: peer, payload: data}) == nil {
				r.sweepPushed.Add(1)
			}
		}

		for _, full := range listed {
			key := strings.TrimPrefix(full, solveKeyPrefix)
			if !slices.Contains(s.replicaOwners(key), r.selfURL) {
				continue
			}
			if _, ok := s.results.Head(solveKeyPrefix + key); ok {
				continue // already replicated here
			}
			resp, _ := fetchPersisted(ctx, r.http, peer, key)
			if resp == nil {
				continue
			}
			// The cache write-through persists the pulled replica locally.
			s.cache.Put(key, resp)
			r.sweepPulled.Add(1)
		}
	}
	r.sweeps.Add(1)
}

// isHexKey reports whether key looks like a content-addressed solve
// fingerprint: 64 lowercase hex digits.
func isHexKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleReplicate ingests one pushed replica: POST /replicate/{key}. The
// persistence bar is re-validated — "error", "deadline" and degraded
// answers are refused with 422 whatever the sender claims — and an
// accepted replica warms the cache, persisting through the write-through
// backend.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.repl == nil {
		http.Error(w, "replication not enabled", http.StatusNotFound)
		return
	}
	key := r.PathValue("key")
	if !isHexKey(key) {
		s.repl.rejects.Add(1)
		http.Error(w, "bad key: want a 64-hex solve fingerprint", http.StatusBadRequest)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	var resp SolveResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		s.repl.rejects.Add(1)
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !persistable(&resp) {
		s.repl.rejects.Add(1)
		http.Error(w, "replica fails the persistence bar (error/deadline/degraded)",
			http.StatusUnprocessableEntity)
		return
	}
	s.cache.Put(key, &resp)
	s.repl.ingested.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleKeys lists persisted store keys: GET /keys?prefix=P. The
// anti-entropy pull side uses it to learn what a sibling holds.
func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	if s.results == nil {
		http.Error(w, "no result store configured", http.StatusNotFound)
		return
	}
	prefix := r.URL.Query().Get("prefix")
	keys := s.results.KeysWithPrefix(prefix)
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, keys)
}

// handleAdminPeers is the shard-side membership surface:
//
//	GET  /admin/peers — current membership (self, replication factor, peers)
//	POST /admin/peers — replace the peer set: {"peers": ["url", ...]};
//	                    kicks an anti-entropy sweep so replica sets converge
//	                    to the new ring without waiting for the ticker.
func (s *Server) handleAdminPeers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		var req struct {
			Peers []string `json:"peers"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
			http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		s.peering.setPeers(req.Peers)
		s.logf("peer set replaced: %d peer(s)", len(s.peering.peerList()))
		s.kickSweep()
	default:
		http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
		return
	}
	out := struct {
		Self      string   `json:"self,omitempty"`
		Replicate int      `json:"replicate,omitempty"`
		Peers     []string `json:"peers"`
	}{Peers: s.peering.peerList()}
	if out.Peers == nil {
		out.Peers = []string{}
	}
	if s.repl != nil {
		out.Self = s.repl.selfURL
		out.Replicate = s.repl.factor
	}
	writeJSON(w, http.StatusOK, out)
}

// ReplicationMetrics is the /metrics section describing R-way replication.
type ReplicationMetrics struct {
	// Factor is the configured replication factor R.
	Factor int `json:"factor"`
	// Pushes counts replicas delivered to sibling owners on the write
	// path; PushErrors failed delivery attempts; PushRetries re-enqueued
	// deliveries; Dropped pushes abandoned to the sweeper (queue overflow
	// or attempts exhausted); QueueDepth the retry queue's current size.
	Pushes      uint64 `json:"pushes"`
	PushErrors  uint64 `json:"push_errors"`
	PushRetries uint64 `json:"push_retries"`
	Dropped     uint64 `json:"dropped"`
	QueueDepth  int    `json:"queue_depth"`
	// Ingested counts replicas accepted on POST /replicate; Rejects
	// replicas refused (validation bar, malformed key or payload).
	Ingested uint64 `json:"ingested"`
	Rejects  uint64 `json:"rejects"`
	// Sweeps counts completed anti-entropy passes; SweepPushed results
	// pushed to under-replicated owners; SweepPulled results fetched for
	// newly owned keys.
	Sweeps      uint64 `json:"sweeps"`
	SweepPushed uint64 `json:"sweep_pushed"`
	SweepPulled uint64 `json:"sweep_pulled"`
}

func (s *Server) replicationMetrics() *ReplicationMetrics {
	r := s.repl
	if r == nil {
		return nil
	}
	return &ReplicationMetrics{
		Factor:      r.factor,
		Pushes:      r.pushes.Load(),
		PushErrors:  r.pushErrors.Load(),
		PushRetries: r.pushRetries.Load(),
		Dropped:     r.dropped.Load(),
		QueueDepth:  len(r.queue),
		Ingested:    r.ingested.Load(),
		Rejects:     r.rejects.Load(),
		Sweeps:      r.sweeps.Load(),
		SweepPushed: r.sweepPushed.Load(),
		SweepPulled: r.sweepPulled.Load(),
	}
}
