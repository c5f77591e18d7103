package neos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hslb/internal/rendezvous"
)

// Cache peering. A shard behind the fleet router normally sees every
// request for its digests, but ring resizes, failovers and bounded-load
// spills hand digests to shards that never solved them. Before paying for
// a solver invocation on a cache miss, a shard with Config.Peers consults
// its ring siblings: GET /history/solve/{key}?limit=1 names the peer's
// newest persisted result for the model, GET /blob/{hash} fetches the
// bytes, and a full-quality response warms the local cache — so a digest
// migrating across the ring carries its answer with it instead of being
// re-solved.
//
// The consult is strictly bounded (PeerBudget across all peers) and
// strictly validating: transport errors, 404s (peer never solved it),
// integrity failures (the peer's /blob refuses corrupt chunks with a 500),
// unparseable bytes, and answers that fail the persistence bar all fall
// through to the local solver. Peering runs inside the solve singleflight,
// before admission, so a thundering herd on one digest costs one consult,
// not one per request, and the consult holds no solve slot.
//
// The peer set is mutable: POST /admin/peers (and the replication layer's
// membership plumbing) swap it on a live server via setPeers.

// defaultPeerBudget bounds one solve's whole peer consult when
// Config.PeerBudget is unset. Peer fetches are two small local-network
// round-trips; a solver invocation costs milliseconds to minutes.
const defaultPeerBudget = 150 * time.Millisecond

// peering is the sibling-consult state hung off a Server.
type peering struct {
	mu     sync.RWMutex
	peers  []string
	budget time.Duration
	http   *http.Client
	logf   func(format string, args ...interface{})

	hits   atomic.Uint64 // cache fills served by a sibling
	misses atomic.Uint64 // consults where no sibling had the key
	errs   atomic.Uint64 // peer responses rejected (transport, corrupt, junk)
	// budgetExhausted counts consults the shared PeerBudget cut short
	// before every sibling was asked — the signature of a partitioned or
	// slow peer eating the walk, distinct from errors and clean misses.
	budgetExhausted atomic.Uint64
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

// newPeering builds the consult state. The peer set may be empty (and grown
// later through setPeers); with no peers the consult is skipped entirely.
func newPeering(cfg Config, logf func(format string, args ...interface{})) *peering {
	budget := cfg.PeerBudget
	if budget <= 0 {
		budget = defaultPeerBudget
	}
	return &peering{
		peers:  normalizePeers(cfg.Peers),
		budget: budget,
		logf:   logf,
		// A dedicated client: the consult must never inherit a proxied
		// default transport's cookie jar or an unbounded timeout.
		http: &http.Client{Timeout: budget},
	}
}

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
// exactly the router's failover order.
func rendezvousOrder(members []string, key string) []string {
	return rendezvous.Order(members, func(m string) string { return m }, key)
}

// order returns the peers in the key's rendezvous order — the same
// highest-random-weight rule the router uses — so every shard consulting
// for one digest walks its siblings in the same sequence and the digest's
// likeliest holders are asked first.
func (p *peering) order(key string) []string {
	return rendezvousOrder(p.peerList(), key)
}

// fetch asks the siblings for the key's persisted result, returning the
// first full-quality response or nil (local solve). The shared budget
// bounds the whole walk: a slow peer eats the remaining peers' time, which
// is the deliberate trade — peering may only ever delay a solve by budget.
func (p *peering) fetch(ctx context.Context, key string) *SolveResponse {
	peers := p.order(key)
	if len(peers) == 0 {
		return nil // never peered: no consult, no counters
	}
	ctx, cancel := context.WithTimeout(ctx, p.budget)
	defer cancel()
	for _, peer := range peers {
		if ctx.Err() != nil {
			// The budget died before this sibling was even asked.
			p.budgetExhausted.Add(1)
			p.misses.Add(1)
			if p.logf != nil {
				p.logf("peer consult for %.12s…: budget %v exhausted before asking %s", key, p.budget, peer)
			}
			return nil
		}
		resp, ok := fetchPersisted(ctx, p.http, peer, key)
		if resp != nil {
			p.hits.Add(1)
			if p.logf != nil {
				p.logf("peer consult for %.12s…: warmed from %s", key, peer)
			}
			return resp
		}
		if !ok {
			if ctx.Err() != nil {
				// The failure is the budget firing mid-fetch, not the peer
				// misbehaving: count exhaustion, not a peer error.
				p.budgetExhausted.Add(1)
				p.misses.Add(1)
				if p.logf != nil {
					p.logf("peer consult for %.12s…: budget %v exhausted talking to %s", key, p.budget, peer)
				}
				return nil
			}
			p.errs.Add(1)
			if p.logf != nil {
				p.logf("peer consult for %.12s…: rejected response from %s", key, peer)
			}
		}
	}
	p.misses.Add(1)
	return nil
}

// fetchPersisted asks one fleet member for its persisted result of key:
// GET /history/solve/{key}?limit=1 names the newest commit, GET /blob/{hash}
// fetches the bytes. It returns (response, true) on a usable full-quality
// hit, (nil, true) on a clean miss (the member simply never solved it), and
// (nil, false) when the member misbehaved — transport failure, corrupt blob,
// undecodable or best-effort payload. Shared by the miss-path peer consult
// and the anti-entropy sweeper's pull side.
func fetchPersisted(ctx context.Context, hc *http.Client, peer, key string) (*SolveResponse, bool) {
	var history []HistoryEntry
	status, err := getJSON(ctx, hc, fmt.Sprintf("%s/history/%s%s?limit=1", peer, solveKeyPrefix, key), &history)
	if err != nil {
		return nil, status == http.StatusNotFound // 404: peer never solved it
	}
	if len(history) == 0 || history[0].Value == "" {
		return nil, true
	}
	var resp SolveResponse
	// A corrupt chunk surfaces here as the peer's 500 ("blob failed
	// integrity verification") and is treated exactly like junk bytes:
	// rejected, never warmed.
	if _, err := getJSON(ctx, hc, peer+"/blob/"+history[0].Value, &resp); err != nil {
		return nil, false
	}
	if !persistable(&resp) {
		return nil, false
	}
	return &resp, true
}

// getJSON GETs url and decodes the body into out, returning the HTTP
// status (0 on transport failure) and an error for any non-200 or
// undecodable response.
func getJSON(ctx context.Context, hc *http.Client, url string, out interface{}) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBody))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("peer: %s: status %d", url, resp.StatusCode)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return resp.StatusCode, fmt.Errorf("peer: %s: %v", url, err)
	}
	return resp.StatusCode, nil
}

// PeerMetrics is the /metrics section describing cache peering.
type PeerMetrics struct {
	// Peers is the configured sibling count.
	Peers int `json:"peers"`
	// Hits counts solves answered from a sibling's persisted result with
	// zero local solver invocations; Misses counts consults where no
	// sibling had the key; Errors counts rejected peer responses
	// (transport failures, corrupt blobs, junk or best-effort payloads).
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
	if p == nil {
		return nil
	}
	m := &PeerMetrics{
		Peers:           len(p.peerList()),
		Hits:            p.hits.Load(),
		Misses:          p.misses.Load(),
		Errors:          p.errs.Load(),
		BudgetExhausted: p.budgetExhausted.Load(),
	}
	if m.Peers == 0 && m.Hits == 0 && m.Misses == 0 && m.Errors == 0 && m.BudgetExhausted == 0 {
		// A never-peered server keeps its /metrics document unchanged.
		return nil
	}
	return m
}
