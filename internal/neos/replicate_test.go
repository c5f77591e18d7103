package neos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hslb/internal/faultnet"
)

// newFleetShard starts a shard whose SelfURL is its own live httptest URL:
// the listener comes up first (behind an atomically swapped handler), the
// URL goes into cfg.SelfURL, then the Server is built and plugged in —
// wrapped by wrap, when given, so a test can observe the shard's traffic.
func newFleetShard(t *testing.T, cfg Config, wrap ...func(http.Handler) http.Handler) (*Server, *httptest.Server, *Client) {
	t.Helper()
	type handlerBox struct{ h http.Handler }
	var h atomic.Value
	h.Store(handlerBox{http.NotFoundHandler()})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.Load().(handlerBox).h.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	cfg.SelfURL = hs.URL
	s, err := NewServerWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	handler := s.Handler()
	for _, w := range wrap {
		handler = w(handler)
	}
	h.Store(handlerBox{handler})
	return s, hs, NewClient(hs.URL)
}

// replCfg is the baseline config of one replicated shard: R=2, persistent,
// anti-entropy ticker off so tests drive sweeps deterministically.
func replCfg(t *testing.T, peers ...string) Config {
	return Config{
		MaxConcurrent:       2,
		StoreDir:            t.TempDir(),
		CachePersist:        true,
		Replicate:           2,
		AntiEntropyInterval: -1,
		Peers:               peers,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hasPersisted reports whether the shard holds key in its result store.
func hasPersisted(s *Server, key string) bool {
	_, ok := s.results.Head(solveKeyPrefix + key)
	return ok
}

// TestReplicateOnFill: with R=2 a solve on one shard lands, persisted, on
// its replica owner without that owner ever invoking a solver — and the
// replica then answers from its own cache.
func TestReplicateOnFill(t *testing.T) {
	// Two members, R=2: each owns every key, so one solve must replicate.
	sbA, hsA, _ := newFleetShard(t, replCfg(t))
	sbB, hsB, cB := newFleetShard(t, replCfg(t, hsA.URL))
	sbA.peering.setPeers([]string{hsB.URL})

	cA := NewClient(hsA.URL)
	ctx := context.Background()
	out, err := cA.Solve(ctx, &SolveRequest{Model: miniModel})
	if err != nil || out.Status != "optimal" {
		t.Fatalf("solve on A: %+v, %v", out, err)
	}
	key, err := RequestKey(&SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	if !hasPersisted(sbA, key) {
		t.Fatal("A did not persist its own fill")
	}
	// B persists the replica before it counts the ingest and answers the
	// push, and A counts the push after the answer: wait for all three.
	waitFor(t, "replica to land on B", func() bool {
		return hasPersisted(sbB, key) && sbB.peering.ingested.Load() > 0 && sbA.peering.pushes.Load() > 0
	})

	mB, err := cB.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mB.Solves.Count != 0 {
		t.Fatalf("replica owner invoked its solver %d times; replication must cost zero solves", mB.Solves.Count)
	}
	if mB.Replication == nil || mB.Replication.Ingested != 1 || mB.Replication.Factor != 2 {
		t.Fatalf("B replication metrics = %+v, want 1 ingest at factor 2", mB.Replication)
	}
	mA, err := cA.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mA.Replication == nil || mA.Replication.Pushes != 1 {
		t.Fatalf("A replication metrics = %+v, want 1 push", mA.Replication)
	}

	// The replica answers the same model from its own cache: zero solver
	// invocations fleet-wide beyond the original.
	outB, err := cB.Solve(ctx, &SolveRequest{Model: miniModelReformatted})
	if err != nil || outB.Status != "optimal" || outB.Objective != out.Objective {
		t.Fatalf("solve on B = %+v, %v; want A's cached answer", outB, err)
	}
	if m, _ := cB.Metrics(ctx); m.Solves.Count != 0 {
		t.Fatalf("B solved instead of using the replica (%d solves)", m.Solves.Count)
	}
}

// TestReplicateIngestValidation: the ingest endpoint re-applies the
// persistence bar — degraded, deadline and error answers are refused with
// 422 whatever the sender claims, malformed keys with 400, and a server
// without replication exposes no ingest at all.
func TestReplicateIngestValidation(t *testing.T) {
	sb, hs, _ := newFleetShard(t, replCfg(t))
	goodKey := strings.Repeat("ab", 32)

	post := func(key string, body interface{}) int {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/replicate/"+key, "application/json", strings.NewReader(string(blob)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, bad := range []*SolveResponse{
		{Status: "deadline", Objective: 1},
		{Status: "error", Error: "boom"},
		{Status: "optimal", Quality: "degraded", Objective: 2},
	} {
		if code := post(goodKey, bad); code != http.StatusUnprocessableEntity {
			t.Fatalf("ingest of %q/%q replica: status %d, want 422", bad.Status, bad.Quality, code)
		}
		if hasPersisted(sb, goodKey) {
			t.Fatalf("best-effort replica %q was persisted", bad.Status)
		}
	}
	if code := post("not-a-key", &SolveResponse{Status: "optimal"}); code != http.StatusBadRequest {
		t.Fatalf("bad key: status %d, want 400", code)
	}
	if code := post(strings.Repeat("AB", 32), &SolveResponse{Status: "optimal"}); code != http.StatusBadRequest {
		t.Fatalf("uppercase key: status %d, want 400", code)
	}
	if code := post(goodKey, &SolveResponse{Status: "optimal", Objective: 7}); code != http.StatusNoContent {
		t.Fatalf("valid replica: status %d, want 204", code)
	}
	waitFor(t, "valid replica to persist", func() bool { return hasPersisted(sb, goodKey) })
	if m := sb.replicationMetrics(); m.Ingested != 1 || m.Rejects != 5 {
		t.Fatalf("metrics = %+v, want 1 ingest / 5 rejects", m)
	}

	// Replication off: the ingest surface does not exist.
	_, plain, _ := newServerWith(t, Config{MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true})
	resp, err := http.Post(plain.URL+"/replicate/"+goodKey, "application/json",
		strings.NewReader(`{"status":"optimal"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unreplicated server ingest: status %d, want 404", resp.StatusCode)
	}
}

// TestAntiEntropyAfterMembershipChange: a shard that joins the ring after
// results were solved converges to holding its share — push repair from the
// old owner, pull repair by the new one — with zero solver invocations.
func TestAntiEntropyAfterMembershipChange(t *testing.T) {
	// A starts alone and solves two models; every key's owner set is {A}.
	sbA, hsA, cA := newFleetShard(t, replCfg(t))
	ctx := context.Background()
	models := []string{miniModel, "var x integer >= 0 <= 9; maximize o: x;"}
	keys := make([]string, len(models))
	for i, m := range models {
		if out, err := cA.Solve(ctx, &SolveRequest{Model: m}); err != nil || out.Status != "optimal" {
			t.Fatalf("seed solve %d: %+v, %v", i, out, err)
		}
		k, err := RequestKey(&SolveRequest{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	if m := sbA.replicationMetrics(); m.Pushes != 0 {
		t.Fatalf("solo shard pushed %d replicas", m.Pushes)
	}

	// B joins; both sides learn the new membership.
	sbB, hsB, cB := newFleetShard(t, replCfg(t, hsA.URL))
	resp, err := http.Post(hsA.URL+"/admin/peers", "application/json",
		strings.NewReader(fmt.Sprintf(`{"peers":[%q]}`, hsB.URL)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin peers: status %d", resp.StatusCode)
	}

	// The membership change kicked A's sweeper (push repair); every key is
	// now owned by both members, so both keys land on B.
	for _, k := range keys {
		k := k
		waitFor(t, "push repair of "+k[:12], func() bool { return hasPersisted(sbB, k) })
	}
	if m, _ := cB.Metrics(ctx); m.Solves.Count != 0 {
		t.Fatalf("anti-entropy cost B %d solver invocations", m.Solves.Count)
	}
	// A counts a sweep push once B has answered it, a moment after B
	// persisted the replica.
	waitFor(t, "A's sweep pushes", func() bool {
		mA, _ := cA.Metrics(ctx)
		return mA.Replication.SweepPushed > 0
	})

	// Pull repair is equivalent and idempotent: wipe nothing, just run B's
	// sweep — everything already present, so it pulls nothing new; then
	// prove the pull side works by wiping B's knowledge of one key from the
	// cache only and re-sweeping against A.
	sbB.sweepOnce()
	mB, _ := cB.Metrics(ctx)
	if mB.Replication.Sweeps == 0 {
		t.Fatalf("B sweep did not run: %+v", mB.Replication)
	}
}

// TestAntiEntropyPullRepair: a joining shard with pull-only knowledge (the
// old owner never learns about it) still converges by asking /keys and
// fetching what it now owns.
func TestAntiEntropyPullRepair(t *testing.T) {
	_, hsA, cA := newFleetShard(t, replCfg(t))
	ctx := context.Background()
	if out, err := cA.Solve(ctx, &SolveRequest{Model: miniModel}); err != nil || out.Status != "optimal" {
		t.Fatalf("seed solve: %+v, %v", out, err)
	}
	key, err := RequestKey(&SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}

	// B knows A, but A never learns about B: only B's pull side can repair.
	sbB, _, cB := newFleetShard(t, replCfg(t, hsA.URL))
	sbB.sweepOnce()
	if !hasPersisted(sbB, key) {
		t.Fatal("pull repair did not fetch the key B now owns")
	}
	mB, _ := cB.Metrics(ctx)
	if mB.Replication.SweepPulled != 1 || mB.Solves.Count != 0 {
		t.Fatalf("B metrics = %+v solves=%d, want 1 sweep pull and 0 solves",
			mB.Replication, mB.Solves.Count)
	}
}

// requestLog records "METHOD path?query" for every request a shard serves.
type requestLog struct {
	mu   sync.Mutex
	seen []string
}

func (l *requestLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.seen = append(l.seen, r.Method+" "+r.URL.RequestURI())
		l.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

// take returns the requests recorded since the last take.
func (l *requestLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := l.seen
	l.seen = nil
	return seen
}

// TestAntiEntropyConvergedSweepListsOnce: once the replica sets have
// converged, a sweep costs each peer exactly one GET /keys listing — no
// per-key reads, no pushes, no pulls.
func TestAntiEntropyConvergedSweepListsOnce(t *testing.T) {
	var logA, logB requestLog
	sbA, hsA, cA := newFleetShard(t, replCfg(t), logA.wrap)
	sbB, hsB, _ := newFleetShard(t, replCfg(t, hsA.URL), logB.wrap)
	resp, err := http.Post(hsA.URL+"/admin/peers", "application/json",
		strings.NewReader(fmt.Sprintf(`{"peers":[%q]}`, hsB.URL)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, "the membership-change sweep", func() bool { return sbA.replicationMetrics().Sweeps > 0 })

	// With two members and R=2 both own every key: each fill replicates.
	ctx := context.Background()
	for i, m := range []string{miniModel, "var x integer >= 0 <= 9; maximize o: x;"} {
		if out, err := cA.Solve(ctx, &SolveRequest{Model: m}); err != nil || out.Status != "optimal" {
			t.Fatalf("seed solve %d: %+v, %v", i, out, err)
		}
		key, err := RequestKey(&SolveRequest{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "replication of "+key[:12], func() bool { return hasPersisted(sbB, key) })
	}

	listing := "GET /keys?prefix=" + solveKeyPrefix
	for _, c := range []struct {
		name   string
		sweep  *Server
		peer   *requestLog
		others *requestLog
	}{{"A", sbA, &logB, &logA}, {"B", sbB, &logA, &logB}} {
		logA.take()
		logB.take()
		c.sweep.sweepOnce()
		if got := c.peer.take(); len(got) != 1 || got[0] != listing {
			t.Errorf("%s's sweep sent its peer %q, want exactly [%q]", c.name, got, listing)
		}
		if got := c.others.take(); len(got) != 0 {
			t.Errorf("%s's sweep reached itself: %q", c.name, got)
		}
		if m := c.sweep.replicationMetrics(); m.SweepPushed != 0 || m.SweepPulled != 0 {
			t.Errorf("%s's converged sweep repaired something: %+v", c.name, m)
		}
	}
}

// TestPartitionedPeerDegradesWithinBudget: a network partition between a
// shard and its peer must cost at most the peer budget — the solve then
// proceeds locally, the consult is counted as budget-exhausted (not a peer
// error), and the log line names the partitioned peer. Exactly one
// terminal outcome per request.
func TestPartitionedPeerDegradesWithinBudget(t *testing.T) {
	_, hsA, cA := newFleetShard(t, replCfg(t))
	ctx := context.Background()
	if out, err := cA.Solve(ctx, &SolveRequest{Model: miniModel}); err != nil || out.Status != "optimal" {
		t.Fatalf("seed solve: %+v, %v", out, err)
	}

	// B reaches A only through a partitioned proxy.
	proxy, err := faultnet.Listen(strings.TrimPrefix(hsA.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	proxy.SetPartitioned(true)

	var logLines []string
	cfg := Config{
		MaxConcurrent: 2,
		StoreDir:      t.TempDir(),
		CachePersist:  true,
		Peers:         []string{proxy.URL()},
		PeerBudget:    100 * time.Millisecond,
		Logf: func(format string, args ...interface{}) {
			logLines = append(logLines, fmt.Sprintf(format, args...))
		},
	}
	_, _, cB := newServerWith(t, cfg)

	start := time.Now()
	out, err := cB.Solve(ctx, &SolveRequest{Model: miniModel})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != "optimal" || out.Quality != "" {
		t.Fatalf("solve across partition = %+v, want one full-quality local answer", out)
	}
	// Budget (100ms) + the local solve; seconds of slack for a loaded host.
	if elapsed > 5*time.Second {
		t.Fatalf("partitioned consult took %v; the budget must bound it", elapsed)
	}
	m, err := cB.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Solves.Count != 1 {
		t.Fatalf("%d solver invocations, want exactly 1 (one terminal outcome per request)", m.Solves.Count)
	}
	if m.Peer == nil || m.Peer.BudgetExhausted == 0 {
		t.Fatalf("peer metrics = %+v, want the partition counted as budget exhaustion", m.Peer)
	}
	if m.Peer.Hits != 0 {
		t.Fatalf("peer metrics = %+v: a partitioned peer cannot produce hits", m.Peer)
	}
	found := false
	for _, line := range logLines {
		if strings.Contains(line, "budget") && strings.Contains(line, proxy.URL()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no consult log line names the partitioned peer %s: %q", proxy.URL(), logLines)
	}

	// Heal: the next miss consults successfully again.
	proxy.SetPartitioned(false)
	out2, err := cB.Solve(ctx, &SolveRequest{Model: "var y integer >= 0 <= 5; maximize o: y;"})
	if err != nil || out2.Status != "optimal" {
		t.Fatalf("post-heal solve: %+v, %v", out2, err)
	}
}

// TestReplicationPushRetriesAcrossPartition: a push that hits a partitioned
// owner retries with backoff and delivers once the partition heals — the
// write path is best-effort but persistent.
func TestReplicationPushRetriesAcrossPartition(t *testing.T) {
	sbB, hsB, _ := newFleetShard(t, replCfg(t))
	proxy, err := faultnet.Listen(strings.TrimPrefix(hsB.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	proxy.SetRefuse(true)

	sbA, hsA, cA := newFleetShard(t, replCfg(t, proxy.URL()))
	_ = hsA
	sbB.peering.setPeers(nil) // B never dials A; only the push path matters

	ctx := context.Background()
	if out, err := cA.Solve(ctx, &SolveRequest{Model: miniModel}); err != nil || out.Status != "optimal" {
		t.Fatalf("solve: %+v, %v", out, err)
	}
	key, err := RequestKey(&SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "push attempts against the dead owner", func() bool {
		return sbA.peering.pushErrors.Load() > 0
	})
	if hasPersisted(sbB, key) {
		t.Fatal("replica crossed a refusing proxy")
	}

	proxy.SetRefuse(false)
	waitFor(t, "replica delivery after heal", func() bool { return hasPersisted(sbB, key) })
	waitFor(t, "push counter after heal", func() bool { return sbA.peering.pushes.Load() == 1 })
	if m := sbA.replicationMetrics(); m.PushRetries == 0 {
		t.Fatalf("push metrics after heal = %+v, want retries counted", m)
	}
}
