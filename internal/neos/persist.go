package neos

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"hslb/internal/resultstore"
)

// Result-store integration. With Config.StoreDir set the server opens a
// versioned result store; with CachePersist also set the solve cache
// writes through to it (key namespace "solve/<fingerprint>"), so a
// restarted server answers previously solved models from the warmed
// cache without invoking a solver. Best-effort answers never persist:
// "deadline" results depend on the request's wall-clock budget and
// "degraded" brownout incumbents are not certified optima — a restart
// must not resurrect either as if it were the model's true answer.

// solveKeyPrefix namespaces persisted solve results in the store.
const solveKeyPrefix = "solve/"

// errNoStore answers store reads on a server without Config.StoreDir.
var errNoStore = fmt.Errorf("no result store configured: %w", errNotFound)

// persistable is the one bar an answer must clear to be cached, persisted,
// replicated, or warmed from a peer or a remote worker: a terminal status
// at full quality. "error" is transient, "deadline" depends on the
// wall-clock budget, an empty status is junk, and any quality tag (a
// degraded brownout incumbent) marks an answer that is not certified. A
// peer or replica is trusted for bytes, not judgement, so its answers are
// re-checked here too.
func persistable(resp *SolveResponse) bool {
	if resp == nil || resp.Quality != "" {
		return false
	}
	switch resp.Status {
	case "", "error", "deadline":
		return false
	}
	return true
}

// cacheBackend adapts the result store to solvecache.Backend.
type cacheBackend struct {
	rs *resultstore.Store
}

// Save persists one cache fill as the head commit of its solve key.
// Identical re-solves commit identical bytes, which the store records as
// a no-op.
func (b *cacheBackend) Save(key string, resp *SolveResponse) error {
	if !persistable(resp) {
		return nil
	}
	data, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	_, err = b.rs.Commit(solveKeyPrefix+key, data, map[string]string{"status": resp.Status})
	return err
}

// LoadAll streams every persisted solve result back. Entries whose blobs
// fail integrity verification or no longer parse are skipped — a corrupt
// chunk surfaces in fsck, never as a served result.
func (b *cacheBackend) LoadAll(fn func(key string, resp *SolveResponse)) error {
	for _, key := range b.rs.KeysWithPrefix(solveKeyPrefix) {
		data, _, err := b.rs.HeadValue(key)
		if err != nil {
			continue
		}
		var resp SolveResponse
		if json.Unmarshal(data, &resp) != nil {
			continue
		}
		fn(strings.TrimPrefix(key, solveKeyPrefix), &resp)
	}
	return nil
}

// responseSize measures a response for the cache's byte-volume counters.
func responseSize(resp *SolveResponse) int {
	b, err := json.Marshal(resp)
	if err != nil {
		return 0
	}
	return len(b)
}

// openResults wires the result store (and, when configured, cache
// persistence) into a new server. Returns the number of cache entries
// warmed from disk.
func (s *Server) openResults() (int, error) {
	if s.cfg.StoreDir == "" {
		if s.cfg.CachePersist {
			return 0, errors.New("neos: CachePersist requires StoreDir")
		}
		return 0, nil
	}
	rs, err := resultstore.Open(s.cfg.StoreDir, resultstore.Options{Sync: s.cfg.Sync})
	if err != nil {
		return 0, err
	}
	s.results = rs
	s.cache.SetSizer(responseSize)
	if !s.cfg.CachePersist {
		return 0, nil
	}
	s.cache.SetBackend(&cacheBackend{rs: rs})
	return s.cache.Warm()
}

// StoreMetrics is the /metrics section describing the result store.
type StoreMetrics struct {
	Chunks       int     `json:"chunks"`
	StoredBytes  int64   `json:"stored_bytes"`
	LogicalBytes int64   `json:"logical_bytes"`
	DedupRatio   float64 `json:"dedup_ratio"`
	Keys         int     `json:"keys"`
	Commits      int64   `json:"commits"`
	// Warmed is how many cache entries were loaded from the store at boot.
	Warmed int `json:"warmed"`
}

func (s *Server) storeMetrics() *StoreMetrics {
	if s.results == nil {
		return nil
	}
	st := s.results.Stats()
	return &StoreMetrics{
		Chunks:       st.Chunks,
		StoredBytes:  st.StoredBytes,
		LogicalBytes: st.LogicalBytes,
		DedupRatio:   st.DedupRatio(),
		Keys:         st.Keys,
		Commits:      st.Commits,
		Warmed:       s.warmed,
	}
}
