package neos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPeerWarmServesWithoutSolver is the peering acceptance scenario: shard
// A solves and persists a model; shard B, a ring sibling that has never
// seen it, answers the same model from A's persisted result with zero
// local solver invocations — and persists it locally via write-through.
func TestPeerWarmServesWithoutSolver(t *testing.T) {
	ctx := context.Background()
	_, aSrv, aClient := newServerWith(t, Config{
		MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true,
	})
	first, err := aClient.Solve(ctx, &SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != "optimal" {
		t.Fatalf("status = %q", first.Status)
	}

	bDir := t.TempDir()
	_, _, bClient := newServerWith(t, Config{
		MaxConcurrent: 2, StoreDir: bDir, CachePersist: true,
		Peers: []string{aSrv.URL},
	})
	// miniModelReformatted canonicalizes to the same digest, so the peer
	// lookup must hit even though the bytes differ.
	second, err := bClient.Solve(ctx, &SolveRequest{Model: miniModelReformatted})
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != "optimal" || second.Objective != first.Objective {
		t.Fatalf("peer-warmed answer = %+v, want %+v", second, first)
	}

	m, err := bClient.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Solves.Count != 0 {
		t.Fatalf("shard B invoked its solver %d times; the peer should have answered", m.Solves.Count)
	}
	if m.Peer == nil || m.Peer.Hits != 1 || m.Peer.Peers != 1 {
		t.Fatalf("peer metrics = %+v, want 1 hit over 1 peer", m.Peer)
	}
	// Write-through: the warmed result must now be persisted on B too.
	if m.Store == nil || m.Store.Keys != 1 {
		t.Fatalf("store metrics = %+v; the peer fill should have persisted locally", m.Store)
	}

	// B is now self-sufficient: kill A and re-ask via B's own cache.
	aSrv.Close()
	third, err := bClient.Solve(ctx, &SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	if third.Status != "optimal" || third.Objective != first.Objective {
		t.Fatalf("post-warm answer = %+v", third)
	}
}

// TestPeerDownFallsThroughToLocalSolve: a dead sibling must cost at most
// the peer budget, never correctness — the shard solves locally.
func TestPeerDownFallsThroughToLocalSolve(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, _, c := newServerWith(t, Config{
		MaxConcurrent: 2, Peers: []string{dead.URL},
	})
	ctx := context.Background()
	out, err := c.Solve(ctx, &SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != "optimal" {
		t.Fatalf("status = %q with a dead peer, want local solve", out.Status)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Solves.Count != 1 {
		t.Fatalf("solver ran %d times, want 1 local solve", m.Solves.Count)
	}
	if m.Peer == nil || m.Peer.Errors == 0 || m.Peer.Hits != 0 {
		t.Fatalf("peer metrics = %+v, want errors counted, no hits", m.Peer)
	}
}

// TestPeerWithoutKeyIsCleanMiss: a healthy sibling that never solved the
// model answers 404, which counts as a miss — not an error.
func TestPeerWithoutKeyIsCleanMiss(t *testing.T) {
	_, aSrv, _ := newServerWith(t, Config{
		MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true,
	})
	_, _, c := newServerWith(t, Config{
		MaxConcurrent: 2, Peers: []string{aSrv.URL},
	})
	ctx := context.Background()
	if out, err := c.Solve(ctx, &SolveRequest{Model: miniModel}); err != nil || out.Status != "optimal" {
		t.Fatalf("solve = %+v, %v", out, err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Peer == nil || m.Peer.Misses != 1 || m.Peer.Errors != 0 {
		t.Fatalf("peer metrics = %+v, want 1 clean miss, 0 errors", m.Peer)
	}
}

// TestPeerCorruptBlobNotWarmed: a sibling whose persisted result fails
// integrity verification (its GET /replicate/{key} returns 500, never the
// altered bytes) must not warm the consulting shard's cache; the model is
// re-solved locally and the correct answer wins.
func TestPeerCorruptBlobNotWarmed(t *testing.T) {
	ctx := context.Background()
	aDir := t.TempDir()
	a, aSrv, aClient := newServerWith(t, Config{
		MaxConcurrent: 2, StoreDir: aDir, CachePersist: true,
	})
	first, err := aClient.Solve(ctx, &SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the chunk file of A's persisted head. A's next read
	// of the key fails integrity verification, so it answers the peer's
	// GET /replicate/{key} with a 500.
	key, err := RequestKey(&SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	head, ok := a.results.Head(solveKeyPrefix + key)
	if !ok {
		t.Fatal("shard A persisted nothing")
	}
	corruptChunk(t, aDir, head.Value)

	_, _, bClient := newServerWith(t, Config{
		MaxConcurrent: 2, Peers: []string{aSrv.URL},
	})
	out, err := bClient.Solve(ctx, &SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != "optimal" || out.Objective != first.Objective {
		t.Fatalf("answer after corrupt peer = %+v, want locally solved %+v", out, first)
	}
	m, err := bClient.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Solves.Count != 1 {
		t.Fatalf("solver ran %d times, want exactly 1 local solve after rejecting the corrupt result", m.Solves.Count)
	}
	if m.Peer == nil || m.Peer.Hits != 0 || m.Peer.Errors == 0 {
		t.Fatalf("peer metrics = %+v: a corrupt result must count as an error, never a hit", m.Peer)
	}
}

// TestPeerRejectsBestEffortAnswers: even if a (misbehaving) peer serves a
// deadline or degraded payload, the consulting shard must not warm it.
func TestPeerRejectsBestEffortAnswers(t *testing.T) {
	for _, bad := range []*SolveResponse{
		{Status: "deadline", Objective: 1},
		{Status: "error", Error: "boom"},
		{Status: "optimal", Quality: "degraded", Objective: 2},
	} {
		blob, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /replicate/{key}", func(w http.ResponseWriter, r *http.Request) {
			w.Write(blob)
		})
		evil := httptest.NewServer(mux)

		_, _, c := newServerWith(t, Config{MaxConcurrent: 2, Peers: []string{evil.URL}})
		out, err := c.Solve(context.Background(), &SolveRequest{Model: miniModel})
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != "optimal" || out.Quality != "" {
			t.Fatalf("peer payload %q warmed through: %+v", bad.Status, out)
		}
		m, err := c.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if m.Solves.Count != 1 || m.Peer.Hits != 0 || m.Peer.Errors == 0 {
			t.Fatalf("payload %q: solves=%d peer=%+v, want local solve + rejected consult",
				bad.Status, m.Solves.Count, m.Peer)
		}
		evil.Close()
	}
}

// TestPeerConsultHoldsNoAdmissionSlot: the peer consult runs inside the
// flight before admission, so a consult stuck on a slow sibling does not
// hold a one-slot server's only admission slot — a concurrent distinct cold
// /solve is admitted at once instead of queueing behind it.
func TestPeerConsultHoldsNoAdmissionSlot(t *testing.T) {
	ctx := context.Background()
	slowKey, err := RequestKey(&SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	asked := make(chan struct{}, 1)
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, slowKey) {
			asked <- struct{}{}
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(slow.Close)
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()

	s, _, c := newServerWith(t, Config{
		MaxConcurrent: 1, Peers: []string{slow.URL}, PeerBudget: time.Minute,
	})
	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Solve(ctx, &SolveRequest{Model: miniModel})
		slowDone <- err
	}()
	select {
	case <-asked:
	case <-time.After(10 * time.Second):
		t.Fatal("the slow sibling was never consulted")
	}

	cold := make(chan error, 1)
	go func() {
		out, err := c.Solve(ctx, &SolveRequest{Model: uniqueEasyModel(1)})
		if err == nil && out.Status != "optimal" {
			err = fmt.Errorf("status %q", out.Status)
		}
		cold <- err
	}()
	select {
	case err := <-cold:
		if err != nil {
			t.Fatalf("cold solve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a distinct cold /solve queued behind a peer consult")
	}
	if st := s.guard.adm.Stats(); st.Admitted != 1 || st.QueueLen != 0 || st.ShedSaturated != 0 {
		t.Fatalf("admission stats = %+v while the consult is stuck, want the cold solve admitted alone", st)
	}

	unblock()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow-consult solve: %v", err)
	}
	if st := s.guard.adm.Stats(); st.Admitted != 2 {
		t.Fatalf("admission stats = %+v, want 2 admissions", st)
	}
}

// TestPeerConsultOneRequestPerPeer: warming from a sibling costs exactly
// one request to it, GET /replicate/{key}, and a sibling the walk passes
// on the way (it never solved the model) costs one too.
func TestPeerConsultOneRequestPerPeer(t *testing.T) {
	ctx := context.Background()
	var logA, logC requestLog
	_, aSrv, aClient := newFleetShard(t, Config{
		MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true,
	}, logA.wrap)
	_, cSrv, _ := newFleetShard(t, Config{
		MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true,
	}, logC.wrap)
	first, err := aClient.Solve(ctx, &SolveRequest{Model: miniModel})
	if err != nil || first.Status != "optimal" {
		t.Fatalf("solve on A: %+v, %v", first, err)
	}
	key, err := RequestKey(&SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}

	peers := []string{aSrv.URL, cSrv.URL}
	_, _, bClient := newServerWith(t, Config{MaxConcurrent: 2, Peers: peers})
	logA.take()
	logC.take()
	out, err := bClient.Solve(ctx, &SolveRequest{Model: miniModel})
	if err != nil || out.Status != "optimal" || out.Objective != first.Objective {
		t.Fatalf("peer-warmed answer = %+v, %v; want %+v", out, err, first)
	}
	m, err := bClient.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Solves.Count != 0 || m.Peer == nil || m.Peer.Hits != 1 {
		t.Fatalf("solves=%d peer=%+v, want a peer warm and no solve", m.Solves.Count, m.Peer)
	}

	read := "GET /replicate/" + key
	if got := logA.take(); len(got) != 1 || got[0] != read {
		t.Errorf("the warming sibling served %q, want exactly [%q]", got, read)
	}
	// C is asked only when the key's rendezvous order puts it before A.
	var wantC []string
	if rendezvousOrder(peers, key)[0] == cSrv.URL {
		wantC = []string{read}
	}
	if got := logC.take(); !slices.Equal(got, wantC) {
		t.Errorf("the sibling without the key served %q, want %q", got, wantC)
	}
}
