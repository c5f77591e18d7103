package neos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hslb/internal/rendezvous"
	"hslb/internal/resultstore"
)

// Shard-to-shard transfer. A persisted result moves between shards by one
// route: GET /replicate/{key} reads the head bytes of solve/<key>, POST
// delivers them. The peer consult, the replication push and anti-entropy
// (replicate.go) share it, one peering value and one client, and every
// byte another shard sends enters through intake, which re-checks the
// persistence bar (a peer is trusted for bytes, not judgement) and never
// calls fill, so nothing received is replicated onward.
//
// Peer consult: ring resizes, failovers and bounded-load spills hand
// digests to shards that never solved them. On a cache miss a shard with
// Config.Peers asks its siblings in the key's rendezvous order, one GET
// each, and warms its cache from the first full-quality answer, so a
// digest migrating across the ring carries its answer with it. The consult
// is bounded by PeerBudget across all peers and strictly validating: a 404
// is a clean miss; transport errors, other statuses (a corrupt chunk is
// the peer's 500, a sibling too old to serve GET answers 405), junk and
// best-effort answers fall through to the local solver. It runs inside the
// solve singleflight, before admission, so a herd on one digest costs one
// consult and the consult holds no solve slot.

// defaultPeerBudget bounds one solve's whole peer consult when
// Config.PeerBudget is unset. Asking a sibling is one small local-network
// round trip; a solver invocation costs milliseconds to minutes.
const defaultPeerBudget = 150 * time.Millisecond

// transferTimeout bounds each background transfer call (see transfer).
const transferTimeout = 5 * time.Second

var (
	// errNotFound is a peer's 404: the consult's and the sweep's clean miss.
	errNotFound = errors.New("status 404")
	// errNotPersistable rejects received bytes below the persistence bar.
	errNotPersistable = errors.New("replica fails the persistence bar (error/deadline/degraded)")
)

// peering is the shard-to-shard state hung off a Server: the membership
// (SelfURL plus the mutable peer set) and its rendezvous order, the one
// transfer client, the replication push queue, and the counters of all
// three flows.
type peering struct {
	mu      sync.RWMutex
	peers   []string
	selfURL string
	// factor is the replication factor R; replication runs when it is > 1.
	factor int
	budget time.Duration
	// http is dedicated and has no Timeout: every call runs under a context
	// deadline, PeerBudget for the consult and transferTimeout for the rest.
	http *http.Client

	queue chan repPush  // replication push retry queue; nil without replication
	kick  chan struct{} // wakes the sweeper early (membership change)

	hits   atomic.Uint64 // cache fills served by a sibling
	misses atomic.Uint64 // consults where no sibling had the key
	errs   atomic.Uint64 // peer responses rejected (transport, corrupt, junk)
	// budgetExhausted counts consults the shared PeerBudget cut short
	// before every sibling was asked — the signature of a partitioned or
	// slow peer eating the walk, distinct from errors and clean misses.
	budgetExhausted atomic.Uint64

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

// normalizePeers trims, deduplicates and canonicalizes a peer URL list.
func normalizePeers(urls []string) []string {
	var peers []string
	seen := map[string]bool{}
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		peers = append(peers, u)
	}
	return peers
}

// newPeering builds the shard-to-shard state. The peer set may be empty
// (and grown later through setPeers); with no peers the consult is skipped
// entirely.
func newPeering(cfg Config) *peering {
	budget := cfg.PeerBudget
	if budget <= 0 {
		budget = defaultPeerBudget
	}
	p := &peering{
		peers:   normalizePeers(cfg.Peers),
		selfURL: strings.TrimRight(strings.TrimSpace(cfg.SelfURL), "/"),
		factor:  cfg.Replicate,
		budget:  budget,
		http:    &http.Client{},
	}
	if p.replicating() {
		p.queue = make(chan repPush, replQueueCap)
		p.kick = make(chan struct{}, 1)
	}
	return p
}

// replicating reports whether R-way replication is on.
func (p *peering) replicating() bool { return p.factor > 1 }

// peerList snapshots the current peer set.
func (p *peering) peerList() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]string(nil), p.peers...)
}

// setPeers replaces the peer set on a live server.
func (p *peering) setPeers(urls []string) {
	peers := normalizePeers(urls)
	p.mu.Lock()
	p.peers = peers
	p.mu.Unlock()
}

// rendezvousOrder sorts members (shard base URLs) into key's preference
// order — the router's shard placement, so a key's replica owners are
// exactly the router's failover order, and every shard consulting for one
// digest walks its siblings in the same sequence, likeliest holders first.
func rendezvousOrder(members []string, key string) []string {
	return rendezvous.Order(members, func(m string) string { return m }, key)
}

// call makes one shard-to-shard request under ctx and returns the body of
// a 2xx answer. A 404 wraps errNotFound; any other status is an error.
func (p *peering) call(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.http.Do(req)
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

// transfer makes one background call — a replication push, a key listing
// or a sweep pull — under transferTimeout.
func (p *peering) transfer(method, url string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), transferTimeout)
	defer cancel()
	return p.call(ctx, method, url, body)
}

// pull fetches peer's persisted result bytes for key in one request:
// GET {peer}/replicate/{key}.
func (p *peering) pull(ctx context.Context, peer, key string) ([]byte, error) {
	return p.call(ctx, http.MethodGet, peer+"/replicate/"+key, nil)
}

// decodeReplica decodes result bytes and checks the persistence bar.
func decodeReplica(data []byte) (*SolveResponse, error) {
	var resp SolveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	if !persistable(&resp) {
		return nil, errNotPersistable
	}
	return &resp, nil
}

// intake is the one way bytes from another shard enter this one: decode,
// check the persistence bar, and put into the cache, whose backend
// persists it. It never calls fill, so nothing received is pushed onward.
func (s *Server) intake(key string, data []byte) (*SolveResponse, error) {
	resp, err := decodeReplica(data)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, resp)
	return resp, nil
}

// consult asks the siblings for the key's persisted result and takes the
// first full-quality answer in through intake, returning it, or nil (local
// solve). The shared budget bounds the whole walk: a slow peer eats the
// remaining peers' time, which is the deliberate trade — peering may only
// ever delay a solve by budget.
func (s *Server) consult(ctx context.Context, key string) *SolveResponse {
	p := s.peering
	peers := rendezvousOrder(p.peerList(), key)
	if len(peers) == 0 {
		return nil // never peered: no consult, no counters
	}
	ctx, cancel := context.WithTimeout(ctx, p.budget)
	defer cancel()
	exhausted := func(how, peer string) *SolveResponse {
		p.budgetExhausted.Add(1)
		p.misses.Add(1)
		s.logf("peer consult for %.12s…: budget %v exhausted %s %s", key, p.budget, how, peer)
		return nil
	}
	for _, peer := range peers {
		if ctx.Err() != nil {
			// The budget died before this sibling was even asked.
			return exhausted("before asking", peer)
		}
		data, err := p.pull(ctx, peer, key)
		if errors.Is(err, errNotFound) {
			continue // the sibling never solved it
		}
		if err != nil && ctx.Err() != nil {
			// The failure is the budget firing mid-request, not the peer
			// misbehaving: count exhaustion, not a peer error.
			return exhausted("talking to", peer)
		}
		if err == nil {
			var resp *SolveResponse
			if resp, err = s.intake(key, data); err == nil {
				p.hits.Add(1)
				s.logf("peer consult for %.12s…: warmed from %s", key, peer)
				return resp
			}
		}
		p.errs.Add(1)
		s.logf("peer consult for %.12s…: rejected response from %s: %v", key, peer, err)
	}
	p.misses.Add(1)
	return nil
}

// handleReplicaRead serves the head bytes of solve/<key>: GET
// /replicate/{key}. The store's chunk read re-verifies the bytes, so a
// corrupt chunk is a 500, never altered bytes; a missing key — or no store
// at all — is the clean-miss 404.
func (s *Server) handleReplicaRead(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !isHexKey(key) {
		http.Error(w, "bad key: want a 64-hex solve fingerprint", http.StatusBadRequest)
		return
	}
	var data []byte
	err := resultstore.ErrNoKey // no store: nothing persisted
	if s.results != nil {
		data, _, err = s.results.HeadValue(solveKeyPrefix + key)
	}
	switch {
	case errors.Is(err, resultstore.ErrNoKey):
		http.Error(w, "no such key", http.StatusNotFound)
		return
	case err != nil:
		http.Error(w, "result failed to load: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// PeerMetrics is the /metrics section describing cache peering.
type PeerMetrics struct {
	// Peers is the configured sibling count.
	Peers int `json:"peers"`
	// Hits counts solves answered from a sibling's persisted result with
	// zero local solver invocations; Misses counts consults where no
	// sibling had the key; Errors counts rejected peer responses
	// (transport failures, corrupt results, junk or best-effort payloads).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Errors uint64 `json:"errors"`
	// BudgetExhausted counts consults the shared PeerBudget cut short
	// before every sibling answered — a partitioned or slow peer burning
	// the walk. Such consults also count under Misses (they fell through
	// to a local solve) but never under Errors.
	BudgetExhausted uint64 `json:"budget_exhausted"`
}

func (s *Server) peerMetrics() *PeerMetrics {
	p := s.peering
	m := &PeerMetrics{
		Peers:           len(p.peerList()),
		Hits:            p.hits.Load(),
		Misses:          p.misses.Load(),
		Errors:          p.errs.Load(),
		BudgetExhausted: p.budgetExhausted.Load(),
	}
	if *m == (PeerMetrics{}) {
		// A never-peered server keeps its /metrics document unchanged.
		return nil
	}
	return m
}
