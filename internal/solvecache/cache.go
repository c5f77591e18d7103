// Package solvecache provides the content-addressed result cache used by
// the NEOS-style solve service: a bounded LRU keyed by canonical model
// fingerprints, with hit/miss/eviction counters and a singleflight group
// that coalesces concurrent identical solves into one solver invocation.
//
// The cache is generic over the value type: it holds solve responses, and
// the service's request-key memo (package neos) is one too, mapping a
// request's exact-bytes digest to its canonical key so a repeated request
// is not parsed again. Other derived artifacts (fitted performance models,
// presolve results) can follow.
package solvecache

import (
	"container/list"
	"sync"
)

// DefaultCapacity is used when New is given a non-positive capacity.
const DefaultCapacity = 256

// Backend persists cache entries across restarts. Save is called on
// every write-through Put (the backend decides what, if anything, to
// keep); LoadAll streams every persisted entry back, for warming the
// cache at boot. Implementations must be safe for concurrent use.
type Backend[V any] interface {
	Save(key string, val V) error
	LoadAll(fn func(key string, val V)) error
}

// Cache is a thread-safe LRU cache with instrumentation counters and an
// optional write-through persistence backend.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	// sizer measures a value in bytes for the byte-volume counters; nil
	// counts every value as zero bytes.
	sizer   func(V) int
	backend Backend[V]

	hits, misses, evictions uint64
	hitBytes, missBytes     uint64
	warmed                  int
	persistErrs             uint64
}

type entry[V any] struct {
	key  string
	val  V
	size int
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	// HitBytes is the cumulative size of values served from the cache;
	// MissBytes is the cumulative size of values filled in after a miss
	// (the bytes the cache could not save). Sizes come from the sizer
	// configured with SetSizer and are zero without one.
	HitBytes  uint64 `json:"hit_bytes"`
	MissBytes uint64 `json:"miss_bytes"`
	// Warmed counts entries loaded from the persistence backend at boot;
	// PersistErrors counts write-through saves that failed (the cached
	// entry itself is unaffected).
	Warmed        int    `json:"warmed,omitempty"`
	PersistErrors uint64 `json:"persist_errors,omitempty"`
}

// New returns an empty cache bounded to capacity entries
// (DefaultCapacity when capacity <= 0).
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// SetSizer installs the value-size function behind the byte-volume
// counters (e.g. encoded-JSON length). Call before serving traffic.
func (c *Cache[V]) SetSizer(fn func(V) int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sizer = fn
}

// SetBackend installs a write-through persistence backend: every Put is
// forwarded to Backend.Save (failures are counted, never fatal), and
// Warm loads persisted entries back. Call before serving traffic.
func (c *Cache[V]) SetBackend(b Backend[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backend = b
}

// Warm fills the cache from the persistence backend, returning how many
// entries were loaded. Entries beyond capacity evict LRU as usual.
func (c *Cache[V]) Warm() (int, error) {
	c.mu.Lock()
	b := c.backend
	c.mu.Unlock()
	if b == nil {
		return 0, nil
	}
	n := 0
	err := b.LoadAll(func(key string, val V) {
		c.put(key, val, false)
		n++
	})
	c.mu.Lock()
	c.warmed += n
	c.mu.Unlock()
	return n, err
}

// Get returns the value cached under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.hitBytes += uint64(el.Value.(*entry[V]).size)
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full, and writes through to the backend when one is set.
func (c *Cache[V]) Put(key string, val V) {
	c.put(key, val, true)
}

func (c *Cache[V]) put(key string, val V, persist bool) {
	c.mu.Lock()
	size := 0
	if c.sizer != nil {
		size = c.sizer(val)
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[V])
		e.val = val
		e.size = size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val, size: size})
		if persist {
			// A fresh fill is the cost of an earlier miss: count its bytes
			// as miss volume (warm-loaded entries cost no solve, so they
			// are excluded).
			c.missBytes += uint64(size)
		}
		for c.ll.Len() > c.capacity {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*entry[V]).key)
			c.evictions++
		}
	}
	b := c.backend
	c.mu.Unlock()
	if persist && b != nil {
		if err := b.Save(key, val); err != nil {
			c.mu.Lock()
			c.persistErrs++
			c.mu.Unlock()
		}
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Size:          c.ll.Len(),
		Capacity:      c.capacity,
		HitBytes:      c.hitBytes,
		MissBytes:     c.missBytes,
		Warmed:        c.warmed,
		PersistErrors: c.persistErrs,
	}
}
