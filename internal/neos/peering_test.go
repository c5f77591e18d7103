package neos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// memTransfer is the in-memory shard-to-shard transfer: peers are servers
// stored by name, and each call goes straight to the core method the HTTP
// route wraps. A name with no server behind it is a dead peer. log records
// each call, per peer, as the route it stands for.
type memTransfer struct {
	peers sync.Map // name → *Server
	mu    sync.Mutex
	log   map[string][]string
}

// to logs one call to peer and returns its server.
func (m *memTransfer) to(peer, call string) (*Server, error) {
	m.mu.Lock()
	if m.log == nil {
		m.log = map[string][]string{}
	}
	m.log[peer] = append(m.log[peer], call)
	m.mu.Unlock()
	if s, ok := m.peers.Load(peer); ok {
		return s.(*Server), nil
	}
	return nil, fmt.Errorf("%s: connection refused", peer)
}

// take returns and clears the calls made to peer.
func (m *memTransfer) take(peer string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	calls := m.log[peer]
	delete(m.log, peer)
	return calls
}

func (m *memTransfer) fetch(_ context.Context, peer, key string) ([]byte, error) {
	s, err := m.to(peer, "GET /replicate/"+key)
	if err != nil {
		return nil, err
	}
	return s.replica(key)
}

func (m *memTransfer) push(_ context.Context, peer, key string, data []byte) error {
	s, err := m.to(peer, "POST /replicate/"+key)
	if err != nil {
		return err
	}
	return s.ingest(key, data)
}

func (m *memTransfer) keys(_ context.Context, peer, prefix string) ([]string, error) {
	s, err := m.to(peer, "GET /keys")
	if err != nil {
		return nil, err
	}
	return s.storeKeys(prefix)
}

// fetchFunc is a transfer whose every fetch is the function, a misbehaving
// or slow sibling; it neither pushes nor lists.
type fetchFunc func(ctx context.Context, peer, key string) ([]byte, error)

func (f fetchFunc) fetch(ctx context.Context, peer, key string) ([]byte, error) {
	return f(ctx, peer, key)
}

func (f fetchFunc) push(context.Context, string, string, []byte) error {
	return errors.New("fetch-only transfer")
}

func (f fetchFunc) keys(context.Context, string, string) ([]string, error) {
	return nil, errors.New("fetch-only transfer")
}

// TestPeerWarmServesWithoutSolver is the peering acceptance scenario: shard
// A solves and persists a model; shard B, a ring sibling that has never
// seen it, answers the same model from A's persisted result with zero
// local solver invocations — and persists it locally via write-through.
func TestPeerWarmServesWithoutSolver(t *testing.T) {
	ctx := context.Background()
	tr := &memTransfer{}
	a := newCore(t, Config{
		MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true,
	}, tr)
	tr.peers.Store("a", a)
	first, err := a.solve(ctx, &SolveRequest{Model: miniModel}, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != "optimal" {
		t.Fatalf("status = %q", first.Status)
	}

	b := newCore(t, Config{
		MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true,
		Peers: []string{"a"},
	}, tr)
	// miniModelReformatted canonicalizes to the same digest, so the peer
	// lookup must hit even though the bytes differ.
	second, err := b.solve(ctx, &SolveRequest{Model: miniModelReformatted}, true)
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != "optimal" || second.Objective != first.Objective {
		t.Fatalf("peer-warmed answer = %+v, want %+v", second, first)
	}

	m := b.metrics()
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
	tr.peers.Delete("a")
	third, err := b.solve(ctx, &SolveRequest{Model: miniModel}, true)
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
	s := newCore(t, Config{
		MaxConcurrent: 2, Peers: []string{"dead"},
	}, &memTransfer{})
	out, err := s.solve(context.Background(), &SolveRequest{Model: miniModel}, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != "optimal" {
		t.Fatalf("status = %q with a dead peer, want local solve", out.Status)
	}
	m := s.metrics()
	if m.Solves.Count != 1 {
		t.Fatalf("solver ran %d times, want 1 local solve", m.Solves.Count)
	}
	if m.Peer == nil || m.Peer.Errors == 0 || m.Peer.Hits != 0 {
		t.Fatalf("peer metrics = %+v, want errors counted, no hits", m.Peer)
	}
}

// TestPeerWithoutKeyIsCleanMiss: a healthy sibling that never solved the
// model answers not-found (a 404 on the wire), which counts as a miss —
// not an error.
func TestPeerWithoutKeyIsCleanMiss(t *testing.T) {
	tr := &memTransfer{}
	tr.peers.Store("a", newCore(t, Config{
		MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true,
	}, tr))
	s := newCore(t, Config{MaxConcurrent: 2, Peers: []string{"a"}}, tr)
	if out, err := s.solve(context.Background(), &SolveRequest{Model: miniModel}, true); err != nil || out.Status != "optimal" {
		t.Fatalf("solve = %+v, %v", out, err)
	}
	m := s.metrics()
	if m.Peer == nil || m.Peer.Misses != 1 || m.Peer.Errors != 0 {
		t.Fatalf("peer metrics = %+v, want 1 clean miss, 0 errors", m.Peer)
	}
}

// TestPeerCorruptBlobNotWarmed: a sibling whose persisted result fails
// integrity verification (its replica read errors, the 500 of GET
// /replicate/{key}, never the altered bytes) must not warm the consulting
// shard's cache; the model is re-solved locally and the correct answer
// wins.
func TestPeerCorruptBlobNotWarmed(t *testing.T) {
	ctx := context.Background()
	aDir := t.TempDir()
	tr := &memTransfer{}
	a := newCore(t, Config{
		MaxConcurrent: 2, StoreDir: aDir, CachePersist: true,
	}, tr)
	tr.peers.Store("a", a)
	first, err := a.solve(ctx, &SolveRequest{Model: miniModel}, true)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the chunk file of A's persisted head. A's next read
	// of the key fails integrity verification.
	key, err := RequestKey(&SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	head, ok := a.results.Head(solveKeyPrefix + key)
	if !ok {
		t.Fatal("shard A persisted nothing")
	}
	corruptChunk(t, aDir, head.Value)

	b := newCore(t, Config{MaxConcurrent: 2, Peers: []string{"a"}}, tr)
	out, err := b.solve(ctx, &SolveRequest{Model: miniModel}, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != "optimal" || out.Objective != first.Objective {
		t.Fatalf("answer after corrupt peer = %+v, want locally solved %+v", out, first)
	}
	m := b.metrics()
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
		evil := fetchFunc(func(context.Context, string, string) ([]byte, error) { return blob, nil })
		s := newCore(t, Config{MaxConcurrent: 2, Peers: []string{"evil"}}, evil)
		out, err := s.solve(context.Background(), &SolveRequest{Model: miniModel}, true)
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != "optimal" || out.Quality != "" {
			t.Fatalf("peer payload %q warmed through: %+v", bad.Status, out)
		}
		m := s.metrics()
		if m.Solves.Count != 1 || m.Peer.Hits != 0 || m.Peer.Errors == 0 {
			t.Fatalf("payload %q: solves=%d peer=%+v, want local solve + rejected consult",
				bad.Status, m.Solves.Count, m.Peer)
		}
	}
}

// TestPeerConsultHoldsNoAdmissionSlot: the peer consult runs inside the
// flight before admission, so a consult stuck on a slow sibling does not
// hold a one-slot server's only admission slot — a concurrent distinct cold
// solve is admitted at once instead of queueing behind it.
func TestPeerConsultHoldsNoAdmissionSlot(t *testing.T) {
	ctx := context.Background()
	slowKey, err := RequestKey(&SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	asked := make(chan struct{}, 1)
	release := make(chan struct{})
	slow := fetchFunc(func(ctx context.Context, _, key string) ([]byte, error) {
		if key == slowKey {
			asked <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return nil, errNotFound
	})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()

	s := newCore(t, Config{
		MaxConcurrent: 1, Peers: []string{"slow"}, PeerBudget: time.Minute,
	}, slow)
	slowDone := make(chan error, 1)
	go func() {
		_, err := s.solve(ctx, &SolveRequest{Model: miniModel}, true)
		slowDone <- err
	}()
	select {
	case <-asked:
	case <-time.After(10 * time.Second):
		t.Fatal("the slow sibling was never consulted")
	}

	cold := make(chan error, 1)
	go func() {
		out, err := s.solve(ctx, &SolveRequest{Model: uniqueEasyModel(1)}, true)
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
	tr := &memTransfer{}
	a := newCore(t, Config{
		MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true,
	}, tr)
	tr.peers.Store("a", a)
	tr.peers.Store("c", newCore(t, Config{
		MaxConcurrent: 2, StoreDir: t.TempDir(), CachePersist: true,
	}, tr))
	first, err := a.solve(ctx, &SolveRequest{Model: miniModel}, true)
	if err != nil || first.Status != "optimal" {
		t.Fatalf("solve on A: %+v, %v", first, err)
	}
	key, err := RequestKey(&SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}

	peers := []string{"a", "c"}
	b := newCore(t, Config{MaxConcurrent: 2, Peers: peers}, tr)
	out, err := b.solve(ctx, &SolveRequest{Model: miniModel}, true)
	if err != nil || out.Status != "optimal" || out.Objective != first.Objective {
		t.Fatalf("peer-warmed answer = %+v, %v; want %+v", out, err, first)
	}
	m := b.metrics()
	if m.Solves.Count != 0 || m.Peer == nil || m.Peer.Hits != 1 {
		t.Fatalf("solves=%d peer=%+v, want a peer warm and no solve", m.Solves.Count, m.Peer)
	}

	read := "GET /replicate/" + key
	if got := tr.take("a"); len(got) != 1 || got[0] != read {
		t.Errorf("the warming sibling served %q, want exactly [%q]", got, read)
	}
	// C is asked only when the key's rendezvous order puts it before A.
	var wantC []string
	if rendezvousOrder(peers, key)[0] == "c" {
		wantC = []string{read}
	}
	if got := tr.take("c"); !slices.Equal(got, wantC) {
		t.Errorf("the sibling without the key served %q, want %q", got, wantC)
	}
}
