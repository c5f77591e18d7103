package neos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestCachePersistSurvivesRestart is the acceptance scenario: a restarted
// server with -cache-persist answers a previously solved model from the
// warmed cache, without invoking a solver.
func TestCachePersistSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxConcurrent: 2, StoreDir: dir, CachePersist: true}
	ctx := context.Background()

	s1 := newCore(t, cfg, nil)
	first, err := s1.solve(ctx, &SolveRequest{Model: miniModel}, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != "optimal" {
		t.Fatalf("status = %q", first.Status)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newCore(t, cfg, nil)
	second, err := s2.solve(ctx, &SolveRequest{Model: miniModelReformatted}, true)
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != "optimal" || second.Objective != first.Objective {
		t.Fatalf("restarted answer = %+v, want %+v", second, first)
	}
	m := s2.metrics()
	if m.Solves.Count != 0 {
		t.Fatalf("solver invoked %d times after restart; cache should have been warm", m.Solves.Count)
	}
	if m.Cache.Hits != 1 || m.Cache.Warmed != 1 {
		t.Fatalf("cache stats after restart = %+v", m.Cache)
	}
	if m.Store == nil || m.Store.Keys != 1 || m.Store.Warmed != 1 {
		t.Fatalf("store metrics = %+v", m.Store)
	}
	if m.Store.Chunks == 0 || m.Store.StoredBytes == 0 {
		t.Fatalf("store metrics = %+v", m.Store)
	}
}

func TestDeadlineAndDegradedNeverPersist(t *testing.T) {
	s := newCore(t, Config{MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true}, nil)
	b := &cacheBackend{rs: s.results}
	if err := b.Save("k1", &SolveResponse{Status: "deadline", Objective: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Save("k2", &SolveResponse{Status: "optimal", Quality: "degraded", Objective: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.Save("k3", &SolveResponse{Status: "error", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if keys := s.results.KeysWithPrefix(solveKeyPrefix); len(keys) != 0 {
		t.Fatalf("best-effort results persisted: %v", keys)
	}
	if err := b.Save("k4", &SolveResponse{Status: "optimal", Objective: 3}); err != nil {
		t.Fatal(err)
	}
	if keys := s.results.KeysWithPrefix(solveKeyPrefix); len(keys) != 1 {
		t.Fatalf("persisted keys = %v", keys)
	}
}

// TestPersistenceBarAtEveryCallSite drives one status × quality table
// through every place the persistence bar guards: the cache backend's Save,
// a solver fill, a remote worker's /work/complete warm, a peer consult's
// pull, and replication ingest. Only a terminal status at full quality may
// pass anywhere.
func TestPersistenceBarAtEveryCallSite(t *testing.T) {
	ctx := context.Background()
	cfg := replCfg(t)
	cfg.SelfURL = "shard"
	shard := newCore(t, cfg, &memTransfer{})
	backend := &cacheBackend{rs: shard.results}
	pull := newCore(t, pullOnlyConfig(), nil)

	var blob atomic.Pointer[[]byte]
	consulter := newCore(t, Config{MaxConcurrent: 2, Peers: []string{"peer"}},
		fetchFunc(func(context.Context, string, string) ([]byte, error) { return *blob.Load(), nil }))

	i := 0
	for _, status := range []string{"", "optimal", "infeasible", "error", "deadline"} {
		for _, quality := range []string{"", "degraded", "heuristic"} {
			i++
			resp := &SolveResponse{Status: status, Quality: quality, Objective: float64(i)}
			if status == "error" {
				resp.Error = "boom"
			}
			want := quality == "" && (status == "optimal" || status == "infeasible")
			name := fmt.Sprintf("status %q quality %q", status, quality)
			if persistable(resp) != want {
				t.Errorf("%s: persistable = %v, want %v", name, !want, want)
			}
			key := fmt.Sprintf("%064x", i)

			if err := backend.Save("save-"+key, resp); err != nil {
				t.Fatal(err)
			}
			if _, got := shard.results.Head(solveKeyPrefix + "save-" + key); got != want {
				t.Errorf("%s: cache backend persisted = %v, want %v", name, got, want)
			}

			shard.fill("fill-"+key, resp)
			if _, got := shard.cache.Get("fill-" + key); got != want {
				t.Errorf("%s: solver fill cached = %v, want %v", name, got, want)
			}

			model := uniqueEasyModel(i)
			if _, err := pull.submit(&SolveRequest{Model: model}); err != nil {
				t.Fatal(err)
			}
			grant, _, err := pull.LeaseWork(ctx, "node-a", 0)
			if err != nil || grant == nil {
				t.Fatalf("lease: %v", err)
			}
			if _, err := pull.completeRemote(ctx, grant.JobID, grant.Fence, resp); err != nil {
				t.Fatal(err)
			}
			jobKey, err := RequestKey(&SolveRequest{Model: model})
			if err != nil {
				t.Fatal(err)
			}
			if _, got := pull.cache.Get(jobKey); got != want {
				t.Errorf("%s: remote completion warmed = %v, want %v", name, got, want)
			}

			data, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			blob.Store(&data)
			if got := consulter.consult(ctx, key); (got != nil) != want {
				t.Errorf("%s: peer consult answered = %v, want %v", name, got != nil, want)
			}
			if _, got := consulter.cache.Get(key); got != want {
				t.Errorf("%s: peer consult warmed = %v, want %v", name, got, want)
			}

			if got := shard.ingest(key, data) == nil; got != want {
				t.Errorf("%s: replication ingest accepted = %v, want %v", name, got, want)
			}
		}
	}
}

func TestBlobAndHistoryEndpoints(t *testing.T) {
	dir := t.TempDir()
	s, hs, c := newServerWith(t, Config{MaxConcurrent: 2, StoreDir: dir, CachePersist: true})
	ctx := context.Background()
	if _, err := c.Solve(ctx, &SolveRequest{Model: miniModel}); err != nil {
		t.Fatal(err)
	}

	keys := s.results.KeysWithPrefix(solveKeyPrefix)
	if len(keys) != 1 {
		t.Fatalf("persisted keys = %v", keys)
	}

	// History of the solve key: one commit, hash + value address present.
	resp, err := http.Get(hs.URL + "/history/" + keys[0])
	if err != nil {
		t.Fatal(err)
	}
	var hist []HistoryEntry
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(hist) != 1 || hist[0].Seq != 1 || hist[0].Hash == "" || hist[0].Value == "" {
		t.Fatalf("history = %+v", hist)
	}

	// The value blob round-trips by content hash and parses as the response.
	resp, err = http.Get(hs.URL + "/blob/" + hist[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blob status = %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil || sr.Status != "optimal" {
		t.Fatalf("blob payload = %q, %v", body, err)
	}

	// The shard-to-shard read serves exactly the persisted head bytes.
	head, _, err := s.results.HeadValue(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(hs.URL + "/replicate/" + strings.TrimPrefix(keys[0], solveKeyPrefix))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, head) {
		t.Fatalf("GET /replicate = %d %q, want 200 with the head bytes %q", resp.StatusCode, body, head)
	}

	// Unknown blob and key 404; a malformed hash or key is a 400.
	for path, want := range map[string]int{
		"/blob/" + string(make([]byte, 0)) + "0000000000000000000000000000000000000000000000000000000000000000": http.StatusNotFound,
		"/history/no/such/key":                   http.StatusNotFound,
		"/blob/zz":                               http.StatusBadRequest,
		"/replicate/" + strings.Repeat("0", 64):  http.StatusNotFound,
		"/replicate/zz":                          http.StatusBadRequest,
		"/replicate/" + strings.Repeat("AB", 32): http.StatusBadRequest,
	} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// A flipped bit in the head's chunk is a 500 from the shard-to-shard
	// read, never the altered bytes.
	corruptChunk(t, dir, hist[0].Value)
	resp, err = http.Get(hs.URL + "/replicate/" + strings.TrimPrefix(keys[0], solveKeyPrefix))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || bytes.Equal(body, head) {
		t.Fatalf("GET /replicate of a corrupt chunk = %d %q, want 500", resp.StatusCode, body)
	}
}

// corruptChunk flips one bit in the chunk file of content hash h in the
// result store under dir. The chunk store re-verifies every read from disk,
// so the flip is visible at once.
func corruptChunk(t *testing.T, dir, h string) {
	t.Helper()
	chunk := filepath.Join(dir, "chunks", h[:2], h[2:])
	raw, err := os.ReadFile(chunk)
	if err != nil {
		t.Fatalf("chunk file for %s: %v", h, err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(chunk, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreEndpointsWithoutStore(t *testing.T) {
	_, hs, _ := newServerWith(t, Config{MaxConcurrent: 1})
	for _, path := range []string{
		"/blob/0000000000000000000000000000000000000000000000000000000000000000",
		"/history/solve/x",
		"/replicate/" + strings.Repeat("0", 64),
	} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d without a store", path, resp.StatusCode)
		}
	}
}

func TestCachePersistRequiresStoreDir(t *testing.T) {
	if _, err := NewServerWith(Config{CachePersist: true}); err == nil {
		t.Fatal("CachePersist without StoreDir must fail")
	}
}
