package neos

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hslb/internal/backoff"
	"hslb/internal/clock"
	"hslb/internal/rendezvous"
	"hslb/internal/resultstore"
)

// Shard-to-shard transfer. A persisted result moves between shards by one
// route, the transfer interface: fetch reads a peer's head bytes of
// solve/<key> (GET /replicate/{key} over HTTP), push delivers them (POST),
// keys lists what a peer holds (GET /keys). The peer consult, the
// replication push and anti-entropy (below) share it through one
// peering value, and every byte another shard sends enters through intake,
// which re-checks the persistence bar (a peer is trusted for bytes, not
// judgement) and never calls fill, so nothing received is replicated
// onward.
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

// transferTimeout bounds each background transfer call: a replication
// push, a key listing or a sweep pull.
const transferTimeout = 5 * time.Second

var (
	// errNotFound is a missing key, job or store (404 on the wire): from a
	// peer, the consult's and the sweep's clean miss.
	errNotFound = errors.New("not found")
	// errNotPersistable rejects received bytes below the persistence bar.
	errNotPersistable = errors.New("replica fails the persistence bar (error/deadline/degraded)")
)

// transfer moves persisted results between shards. A peer is addressed by
// its base URL. fetch returns the peer's head bytes for key, errNotFound
// when it holds none; push delivers them; keys lists the peer's persisted
// keys under prefix. Every call runs under ctx: PeerBudget for the consult,
// transferTimeout for the background flows. httpTransfer (http.go) is the
// implementation shards use.
type transfer interface {
	fetch(ctx context.Context, peer, key string) ([]byte, error)
	push(ctx context.Context, peer, key string, data []byte) error
	keys(ctx context.Context, peer, prefix string) ([]string, error)
}

// peering is the shard-to-shard state hung off a Server: the membership
// (SelfURL plus the mutable peer set) and its rendezvous order, the one
// transfer, the replication push queue, and the counters of all three
// flows.
type peering struct {
	mu      sync.RWMutex
	peers   []string
	selfURL string
	// factor is the replication factor R; replication runs when it is > 1.
	factor int
	budget time.Duration
	tr     transfer
	clock  clock.Clock

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

// newPeering builds the shard-to-shard state over tr. The peer set may be
// empty (and grown later through setPeers); with no peers the consult is
// skipped entirely.
func newPeering(cfg Config, tr transfer) *peering {
	budget := cfg.PeerBudget
	if budget <= 0 {
		budget = defaultPeerBudget
	}
	p := &peering{
		peers:   normalizePeers(cfg.Peers),
		selfURL: strings.TrimRight(strings.TrimSpace(cfg.SelfURL), "/"),
		factor:  cfg.Replicate,
		budget:  budget,
		tr:      tr,
		clock:   cfg.clock,
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
	ctx, cancel := p.clock.WithTimeout(ctx, p.budget)
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
		data, err := p.tr.fetch(ctx, peer, key)
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

// replica reads this shard's persisted head bytes for a solve key, what a
// peer's fetch asks for. The store's chunk read re-verifies the bytes, so a
// corrupt chunk is an error, never altered bytes; a missing key — or no
// store at all — is errNotFound, the clean miss.
func (s *Server) replica(key string) ([]byte, error) {
	if !isHexKey(key) {
		return nil, errBadKey
	}
	if s.results == nil {
		return nil, errNotFound // no store: nothing persisted
	}
	data, _, err := s.results.HeadValue(solveKeyPrefix + key)
	if errors.Is(err, resultstore.ErrNoKey) {
		return nil, errNotFound
	}
	return data, err
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

// R-way result replication with anti-entropy repair. With Config.Replicate
// R > 1 every full-quality result is owned by the top R members of its
// key's rendezvous order over SelfURL plus Peers — the router's failover
// order, so when a shard dies the router's next choice for a digest holds
// its replica.
//
//   - Write path: a solver fill (local or a remote worker's /work/complete)
//     enqueues a push to the other R−1 owners (POST /replicate/{key})
//     through a bounded retry queue; the owner takes it in through ingest.
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

// push delivers one replica under transferTimeout.
func (p *peering) push(item repPush) error {
	ctx, cancel := p.clock.WithTimeout(context.Background(), transferTimeout)
	defer cancel()
	return p.tr.push(ctx, item.target, item.key, item.payload)
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
		t := p.clock.NewTimer(backoff.Delay(100*time.Millisecond, 2*time.Second, item.attempts-1))
		select {
		case <-s.quit:
			t.Stop()
			return
		case <-t.C():
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
		t := s.peering.clock.NewTicker(interval)
		defer t.Stop()
		tick = t.C()
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

// sweepOnce runs one anti-entropy pass, one peer at a time, driven by the
// peer's single key listing under solve/: push every local result
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
		ctx, cancel := p.clock.WithTimeout(context.Background(), transferTimeout)
		listed, err := p.tr.keys(ctx, peer, solveKeyPrefix)
		cancel()
		if err != nil {
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
			if _, ok := s.results.Head(full); ok {
				continue // already replicated here
			}
			ctx, cancel := p.clock.WithTimeout(context.Background(), transferTimeout)
			data, err := p.tr.fetch(ctx, peer, key)
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

// errBadKey rejects a key that is not a solve fingerprint.
var errBadKey = badRequest("bad key: want a 64-hex solve fingerprint")

// ingest takes in one replica pushed by a peer (POST /replicate/{key}).
// The bytes enter through intake, so "error", "deadline" and degraded
// answers are refused with errNotPersistable whatever the sender claims,
// and an accepted replica warms the cache, persisting through the
// write-through backend. A server without replication has no ingest.
func (s *Server) ingest(key string, data []byte) error {
	p := s.peering
	if !p.replicating() {
		return fmt.Errorf("replication not enabled: %w", errNotFound)
	}
	var err error = errBadKey
	if isHexKey(key) {
		_, err = s.intake(key, data)
	}
	if err != nil {
		p.rejects.Add(1)
		return err
	}
	p.ingested.Add(1)
	return nil
}

// storeKeys lists persisted store keys under prefix (GET /keys), what a
// sibling's sweep lists.
func (s *Server) storeKeys(prefix string) ([]string, error) {
	if s.results == nil {
		return nil, errNoStore
	}
	return append([]string{}, s.results.KeysWithPrefix(prefix)...), nil
}

// membership is the shard-side membership view (GET and POST /admin/peers):
// self and the replication factor (set only while replicating) and the
// current peers.
type membership struct {
	Self      string   `json:"self,omitempty"`
	Replicate int      `json:"replicate,omitempty"`
	Peers     []string `json:"peers"`
}

// setPeers replaces the peer set on a live server and kicks an
// anti-entropy sweep, so replica sets converge to the new ring without
// waiting for the ticker.
func (s *Server) setPeers(urls []string) {
	s.peering.setPeers(urls)
	s.logf("peer set replaced: %d peer(s)", len(s.peering.peerList()))
	select {
	case s.peering.kick <- struct{}{}: // nil, so never ready, without replication
	default:
	}
}

// membership returns the current membership view.
func (s *Server) membership() membership {
	out := membership{Peers: s.peering.peerList()}
	if out.Peers == nil {
		out.Peers = []string{}
	}
	if s.peering.replicating() {
		out.Self = s.peering.selfURL
		out.Replicate = s.peering.factor
	}
	return out
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
