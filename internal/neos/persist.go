package neos

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"hslb/internal/cas"
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
	rs, err := resultstore.Open(s.cfg.StoreDir, resultstore.Options{})
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

// Results exposes the server's result store (nil without StoreDir) for
// pipeline code sharing the store.
func (s *Server) Results() *resultstore.Store { return s.results }

// handleBlob serves raw store blobs by content hash: GET /blob/{hash}.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	if s.results == nil {
		http.Error(w, "no result store configured", http.StatusNotFound)
		return
	}
	h, err := cas.ParseHash(r.PathValue("hash"))
	if err != nil {
		http.Error(w, "bad hash: "+err.Error(), http.StatusBadRequest)
		return
	}
	data, err := s.results.CAS().Get(h)
	switch {
	case errors.Is(err, cas.ErrNotFound):
		http.Error(w, "no such blob", http.StatusNotFound)
		return
	case errors.Is(err, cas.ErrCorrupt):
		// Integrity verification failed: refuse to serve altered bytes.
		http.Error(w, "blob failed integrity verification", http.StatusInternalServerError)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// HistoryEntry is one commit in a /history listing.
type HistoryEntry struct {
	Hash   string            `json:"hash"`
	Parent string            `json:"parent,omitempty"`
	Value  string            `json:"value"`
	Seq    int               `json:"seq"`
	Unix   int64             `json:"unix"`
	Meta   map[string]string `json:"meta,omitempty"`
}

// handleHistory lists a key's commit history, newest first:
// GET /history/{key...}?limit=N.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.results == nil {
		http.Error(w, "no result store configured", http.StatusNotFound)
		return
	}
	key := r.PathValue("key")
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	log, err := s.results.Log(key, limit)
	if errors.Is(err, resultstore.ErrNoKey) {
		http.Error(w, "no such key", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := make([]HistoryEntry, len(log))
	for i, c := range log {
		out[i] = HistoryEntry{
			Hash: c.Hash, Parent: c.Parent, Value: c.Value,
			Seq: c.Seq, Unix: c.Unix, Meta: c.Meta,
		}
	}
	writeJSON(w, http.StatusOK, out)
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
