package neos

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"hslb/internal/backoff"
)

// R-way result replication with anti-entropy repair. With Config.Replicate
// R > 1 every full-quality result is owned by the top R members of its
// key's rendezvous order over SelfURL plus Peers — the router's failover
// order, so when a shard dies the router's next choice for a digest holds
// its replica.
//
//   - Write path: a solver fill (local or a remote worker's /work/complete)
//     enqueues a push to the other R−1 owners, POST /replicate/{key},
//     through a bounded retry queue; the owner takes it in through intake.
//   - Anti-entropy: a sweeper (kicked early on membership changes) lists
//     each peer's keys once, pushes local results the peer owns but lacks,
//     and pulls listed keys this server owns but lacks, so a ring resize
//     converges the replica sets without request traffic.
//
// Results are immutable for a given key (solves are deterministic), so
// replicas can only be missing, never conflicting: convergence is set
// union under the persistence bar.

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

// replicaOwners returns the key's owner set: the top R members (self plus
// peers) of its rendezvous order. With fewer members than R, everyone owns
// everything.
func (p *peering) replicaOwners(key string) []string {
	order := rendezvousOrder(append(p.peerList(), p.selfURL), key)
	if len(order) > p.factor {
		order = order[:p.factor]
	}
	return order
}

// replicateFill enqueues pushes of a fresh solver fill to the key's other
// replica owners. Only fill calls this, after the persistence bar — never
// peer warms or replication ingests, so pushes cannot loop.
func (p *peering) replicateFill(key string, resp *SolveResponse) {
	if !p.replicating() {
		return
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		return
	}
	for _, owner := range p.replicaOwners(key) {
		if owner == p.selfURL {
			continue
		}
		p.enqueue(repPush{key: key, target: owner, payload: payload})
	}
}

// enqueue adds a push to the bounded retry queue, dropping (counted) when
// full — anti-entropy repairs dropped pushes on the next sweep.
func (p *peering) enqueue(item repPush) {
	select {
	case p.queue <- item:
	default:
		p.dropped.Add(1)
	}
}

// push delivers one replica under transferTimeout: POST
// {target}/replicate/{key}.
func (p *peering) push(item repPush) error {
	_, err := p.transfer(http.MethodPost, item.target+"/replicate/"+item.key, item.payload)
	return err
}

// pusher drains the replication queue, retrying failed pushes with
// exponential backoff until maxPushAttempts, then leaving the repair to
// the sweeper.
func (s *Server) pusher() {
	defer s.wg.Done()
	p := s.peering
	for {
		var item repPush
		select {
		case <-s.quit:
			return
		case item = <-p.queue:
		}
		err := p.push(item)
		if err == nil {
			p.pushes.Add(1)
			continue
		}
		p.pushErrors.Add(1)
		item.attempts++
		if item.attempts >= maxPushAttempts {
			p.dropped.Add(1)
			s.logf("replication push of %.12s… to %s abandoned after %d attempts: %v",
				item.key, item.target, item.attempts, err)
			continue
		}
		// Back off before the retry; a dead owner must not spin the queue.
		select {
		case <-s.quit:
			return
		case <-time.After(backoff.Delay(100*time.Millisecond, 2*time.Second, item.attempts-1)):
		}
		p.pushRetries.Add(1)
		p.enqueue(item)
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
		case <-s.peering.kick:
			s.sweepOnce()
		}
	}
}

// kickSweep schedules an immediate anti-entropy sweep (member change).
func (s *Server) kickSweep() {
	if !s.peering.replicating() {
		return
	}
	select {
	case s.peering.kick <- struct{}{}:
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
	p := s.peering
	if !p.replicating() || s.results == nil {
		return
	}
	local := s.results.KeysWithPrefix(solveKeyPrefix)
	for _, peer := range p.peerList() {
		select {
		case <-s.quit:
			return
		default:
		}
		var listed []string
		data, err := p.transfer(http.MethodGet, peer+"/keys?prefix="+solveKeyPrefix, nil)
		if err != nil || json.Unmarshal(data, &listed) != nil {
			continue // peer unreachable or misbehaving; next sweep retries
		}
		held := make(map[string]bool, len(listed))
		for _, full := range listed {
			held[full] = true
		}

		for _, full := range local {
			key := strings.TrimPrefix(full, solveKeyPrefix)
			if held[full] || !slices.Contains(p.replicaOwners(key), peer) {
				continue
			}
			data, _, err := s.results.HeadValue(full)
			if err != nil {
				continue // local corruption surfaces in fsck, never replicates
			}
			if _, err := decodeReplica(data); err != nil {
				continue
			}
			if p.push(repPush{key: key, target: peer, payload: data}) == nil {
				p.sweepPushed.Add(1)
			}
		}

		for _, full := range listed {
			key := strings.TrimPrefix(full, solveKeyPrefix)
			if !slices.Contains(p.replicaOwners(key), p.selfURL) {
				continue
			}
			if _, ok := s.results.Head(solveKeyPrefix + key); ok {
				continue // already replicated here
			}
			ctx, cancel := context.WithTimeout(context.Background(), transferTimeout)
			data, err := p.pull(ctx, peer, key)
			cancel()
			if err != nil {
				continue
			}
			// The cache write-through persists the pulled replica locally.
			if _, err := s.intake(key, data); err == nil {
				p.sweepPulled.Add(1)
			}
		}
	}
	p.sweeps.Add(1)
}

// isHexKey reports whether key looks like a content-addressed solve
// fingerprint: 64 lowercase hex digits.
func isHexKey(key string) bool {
	_, err := hex.DecodeString(key)
	return len(key) == 64 && err == nil && strings.ToLower(key) == key
}

// handleReplicate ingests one pushed replica: POST /replicate/{key}. The
// bytes enter through intake, so "error", "deadline" and degraded answers
// are refused with 422 whatever the sender claims, and an accepted replica
// warms the cache, persisting through the write-through backend.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	p := s.peering
	if !p.replicating() {
		http.Error(w, "replication not enabled", http.StatusNotFound)
		return
	}
	key := r.PathValue("key")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	code := http.StatusBadRequest
	switch {
	case !isHexKey(key):
		err = errors.New("bad key: want a 64-hex solve fingerprint")
	case err == nil:
		if _, err = s.intake(key, data); errors.Is(err, errNotPersistable) {
			code = http.StatusUnprocessableEntity
		}
	}
	if err != nil {
		p.rejects.Add(1)
		http.Error(w, err.Error(), code)
		return
	}
	p.ingested.Add(1)
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
	if s.peering.replicating() {
		out.Self = s.peering.selfURL
		out.Replicate = s.peering.factor
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
	r := s.peering
	if !r.replicating() {
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
