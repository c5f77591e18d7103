package neos

import (
	"sync"

	"hslb/internal/jobstore"
	"hslb/internal/solvecache"
)

// Metrics is the JSON document served at /metrics.
type Metrics struct {
	Cache solvecache.Stats `json:"cache"`
	// KeyMemo counts the process's request-key memo (KeyMemoStats): a hit
	// is a request whose exact body this process had keyed before, so it
	// was neither parsed nor canonicalized again.
	KeyMemo solvecache.Stats `json:"key_memo"`
	Jobs    struct {
		QueueDepth int            `json:"queue_depth"`
		Counts     map[string]int `json:"counts"`
		Recovered  int            `json:"recovered"`
		// WALBytes is the job queue's write-ahead log size on disk.
		WALBytes int64 `json:"wal_bytes"`
		// Leased is the number of jobs currently held under a lease, and
		// ActiveWorkers the distinct worker IDs holding them.
		Leased        int `json:"leased"`
		ActiveWorkers int `json:"active_workers"`
		// LeaseReclaims counts expired-lease reclaims by the reaper, and
		// StaleRejects transitions rejected for a stale fencing token.
		LeaseReclaims uint64 `json:"lease_reclaims"`
		StaleRejects  uint64 `json:"stale_rejects"`
		// DuplicateCompletes counts idempotent /work/complete replays
		// absorbed as no-ops; WorkerPanics counts recovered panics in
		// in-process workers (each leaves a job for the reaper).
		DuplicateCompletes uint64 `json:"duplicate_completes"`
		WorkerPanics       uint64 `json:"worker_panics"`
	} `json:"jobs"`
	Solves SolveStats `json:"solves"`
	// Overload describes the protection stack (breaker state, shed and
	// brownout counters); nil/omitted when overload protection is off.
	Overload *OverloadMetrics `json:"overload,omitempty"`
	// Store describes the result store (chunk counts, dedup ratio, warmed
	// cache entries); nil/omitted without Config.StoreDir.
	Store *StoreMetrics `json:"store,omitempty"`
	// Peer describes cache peering (sibling consults on cache misses);
	// nil/omitted without Config.Peers.
	Peer *PeerMetrics `json:"peer,omitempty"`
	// Replication describes R-way result replication and anti-entropy
	// repair; nil/omitted unless Config.Replicate > 1.
	Replication *ReplicationMetrics `json:"replication,omitempty"`
}

// metrics snapshots the server's instrumentation (GET /metrics).
func (s *Server) metrics() *Metrics {
	counts := s.store.Counts()
	m := &Metrics{
		Cache:   s.cache.Stats(),
		KeyMemo: KeyMemoStats(),
		Solves:  s.hist.snapshot(),
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
	return m
}

// SolveStats summarizes solver invocations (cache hits never reach the
// solver and are counted only under Cache.Hits).
type SolveStats struct {
	Count             uint64          `json:"count"`
	LatencySumSeconds float64         `json:"latency_sum_seconds"`
	LatencyBuckets    []LatencyBucket `json:"latency_buckets"`
}

// LatencyBucket is one cumulative histogram bucket; LE is the inclusive
// upper bound in seconds ("+Inf" for the last bucket), Prometheus-style.
type LatencyBucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// histBounds are the bucket upper bounds in seconds. The paper's instances
// solve in milliseconds to a few seconds locally; 60s marks runaway jobs.
var histBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

var histLabels = []string{"0.001", "0.005", "0.025", "0.1", "0.5", "2.5", "10", "60", "+Inf"}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	mu     sync.Mutex
	counts []uint64 // len(histBounds)+1, cumulative at snapshot time
	sum    float64
	n      uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(histBounds)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := 0
	for i < len(histBounds) && seconds > histBounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += seconds
	h.n++
	h.mu.Unlock()
}

func (h *histogram) snapshot() SolveStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := SolveStats{
		Count:             h.n,
		LatencySumSeconds: h.sum,
		LatencyBuckets:    make([]LatencyBucket, len(h.counts)),
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		out.LatencyBuckets[i] = LatencyBucket{LE: histLabels[i], Count: cum}
	}
	return out
}
