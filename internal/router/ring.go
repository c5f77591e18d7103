// Package router implements the shard-routing front tier of the solve
// fleet: it consistent-hashes the canonical model digest onto a ring of
// hslbserver shards so identical solves always land on the shard that has
// them cached, spills hot digests when a shard's share of the in-flight
// load exceeds a bounded-load factor, health-checks shards via /ready, and
// fails over in deterministic rendezvous order. Responses — including a
// shard's 429/503 Retry-After hints — pass through unmodified.
package router

import (
	"sync"
	"sync/atomic"

	"hslb/internal/rendezvous"
)

// Shard is one hslbserver behind the router.
type Shard struct {
	// ID is the stable ring identity: hashing uses it, so replacing a
	// shard's URL (new host, same slot) keeps its key range. Defaults to
	// the URL.
	ID string
	// URL is the shard's base URL.
	URL string

	healthy  atomic.Bool
	inflight atomic.Int64
	// failStreak counts consecutive failed health probes; the router
	// demotes only at Config.HealthFailThreshold so one dropped probe
	// (flap) doesn't re-route the shard's key range.
	failStreak atomic.Int32
}

// Healthy reports the shard's last observed /ready state.
func (s *Shard) Healthy() bool { return s.healthy.Load() }

// Inflight is the number of requests the router currently has outstanding
// against this shard.
func (s *Shard) Inflight() int64 { return s.inflight.Load() }

// setHealthy flips the health bit, returning whether it changed.
func (s *Shard) setHealthy(v bool) bool { return s.healthy.Swap(v) != v }

// Ring places digests on shards by rendezvous (highest-random-weight)
// hashing: every (shard, digest) pair gets a deterministic score, and a
// digest's preference order is its shards sorted by descending score. The
// order depends only on shard IDs and the digest — never on registration
// order — and adding or removing one shard reassigns only the digests
// whose top choice changed (~1/N of keys).
//
// Placement is the bounded-load variant: a shard already carrying more
// than LoadFactor × its fair share of in-flight requests is skipped, so
// one viral digest spills onto the next shards in its preference order
// instead of melting its home shard.
type Ring struct {
	mu     sync.RWMutex
	shards []*Shard
	// loadFactor is the bounded-load headroom c (> 1); a shard is
	// overfull when inflight > ceil(c × (total+1) / healthyShards).
	loadFactor float64
}

// DefaultLoadFactor is the bounded-load headroom used when NewRing is
// given a factor <= 1.
const DefaultLoadFactor = 1.25

// NewRing returns a ring over the given shards. Shards start unhealthy
// until the first health probe (or MarkHealthy in tests).
func NewRing(shards []*Shard, loadFactor float64) *Ring {
	if loadFactor <= 1 {
		loadFactor = DefaultLoadFactor
	}
	r := &Ring{loadFactor: loadFactor}
	r.SetShards(shards)
	return r
}

// SetShards replaces the shard set (a rebalance). Shard structs are kept
// verbatim, so health and in-flight state survive for shards present in
// both sets.
func (r *Ring) SetShards(shards []*Shard) {
	for _, s := range shards {
		if s.ID == "" {
			s.ID = s.URL
		}
	}
	r.mu.Lock()
	r.shards = append([]*Shard(nil), shards...)
	r.mu.Unlock()
}

// Shards returns a snapshot of the shard set.
func (r *Ring) Shards() []*Shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Shard(nil), r.shards...)
}

// Order returns every shard in the digest's deterministic preference
// order (rendezvous.Order over shard IDs). Health and load are not
// consulted — this is the pure placement; Pick applies both.
func (r *Ring) Order(digest string) []*Shard {
	return rendezvous.Order(r.Shards(), func(s *Shard) string { return s.ID }, digest)
}

// Pick returns the digest's shards in attempt order: healthy shards in
// preference order with overfull ones (bounded load) demoted to the back,
// so the caller can fail over down the list. An overfull shard is still a
// valid last resort — shedding is the shard's own job — and with no
// healthy shard at all the empty list tells the caller to 503. spilled
// reports whether the digest's healthy home shard was demoted, i.e. the
// bounded-load rule moved this placement.
func (r *Ring) Pick(digest string) (candidates []*Shard, spilled bool) {
	order := r.Order(digest)
	healthy := order[:0:0]
	var total int64
	for _, s := range order {
		if s.Healthy() {
			healthy = append(healthy, s)
			total += s.Inflight()
		}
	}
	if len(healthy) <= 1 {
		return healthy, false
	}
	bound := r.bound(total, len(healthy))
	fits := make([]*Shard, 0, len(healthy))
	var overfull []*Shard
	for _, s := range healthy {
		if s.Inflight() >= bound {
			overfull = append(overfull, s)
			continue
		}
		fits = append(fits, s)
	}
	spilled = len(fits) > 0 && fits[0] != healthy[0]
	return append(fits, overfull...), spilled
}

// bound is the bounded-load in-flight ceiling per shard:
// ceil(loadFactor × (total+1) / n).
func (r *Ring) bound(total int64, n int) int64 {
	r.mu.RLock()
	c := r.loadFactor
	r.mu.RUnlock()
	b := int64(c * float64(total+1) / float64(n))
	if float64(b) < c*float64(total+1)/float64(n) {
		b++
	}
	if b < 1 {
		b = 1
	}
	return b
}
