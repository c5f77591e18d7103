package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hslb/internal/faultnet"
	"hslb/internal/neos"
)

// fleetShard is one real neos.Server behind a faultnet proxy. The proxy
// URL is both the shard's ring ID and its SelfURL, so refusing new
// connections and cutting the live ones at the proxy is, to the router and
// to the peers, a killed process.
type fleetShard struct {
	url   string // the proxy: what the fleet addresses
	proxy *faultnet.Proxy
	admin *neos.Client // direct to the server, past the proxy
}

// kill simulates a SIGKILL: no new connection gets through and every live
// one is cut mid-stream.
func (s *fleetShard) kill() {
	s.proxy.SetRefuse(true)
	s.proxy.CloseAll()
}

// startReplicatedFleet starts n persistent shards with R = 2 that peer with
// each other over their proxy URLs. The anti-entropy ticker is off, so
// replicas arrive only by the push that follows each solve.
func startReplicatedFleet(t *testing.T, n int) []*fleetShard {
	t.Helper()
	shards := make([]*fleetShard, n)
	listeners := make([]*httptest.Server, n)
	for i := range shards {
		hs := httptest.NewUnstartedServer(nil)
		p, err := faultnet.Listen(hs.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		listeners[i] = hs
		shards[i] = &fleetShard{url: p.URL(), proxy: p}
	}
	for i, hs := range listeners {
		var peers []string
		for j, s := range shards {
			if j != i {
				peers = append(peers, s.url)
			}
		}
		srv, err := neos.NewServerWith(neos.Config{
			MaxConcurrent:       2,
			StoreDir:            t.TempDir(),
			CachePersist:        true,
			Replicate:           2,
			AntiEntropyInterval: -1,
			SelfURL:             shards[i].url,
			Peers:               peers,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs.Config.Handler = srv.Handler()
		hs.Start()
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		shards[i].admin = neos.NewClient(hs.URL)
	}
	return shards
}

// fleetModel is a small model whose optimum is 100/bound; each bound is a
// distinct digest.
func fleetModel(bound int) string {
	return fmt.Sprintf("var T >= 0 <= 1000; var x integer >= 1 <= %d; minimize obj: T; subject to a: 100 / x <= T;", bound)
}

// solveVia posts one model through the router with a bare HTTP client, so
// a transport error reaches the caller instead of being retried away.
func solveVia(front, model string) (*neos.SolveResponse, error) {
	body, _ := json.Marshal(neos.SolveRequest{Model: model})
	resp, err := http.Post(front+"/solve", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, payload)
	}
	var out neos.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TestRouterShardKillReplicaFailover is the shard-failure acceptance
// scenario over three real replicated shards (R = 2) behind the router:
//
//   - a corpus is solved until the victim shard is home to >= 3 digests,
//     and every digest reaches both of its owners;
//   - the victim is killed while the router has requests in flight on it,
//     and no client sees a transport error or a non-200 answer;
//   - replaying the corpus returns the recorded objectives with zero new
//     solver invocations on the survivors: the replica owners answer for
//     the dead home shard.
func TestRouterShardKillReplicaFailover(t *testing.T) {
	shards := startReplicatedFleet(t, 3)
	victim, survivors := shards[0], shards[1:]
	rt, front := newTestRouter(t, shards[0].url, shards[1].url, shards[2].url)
	ctx := context.Background()

	// The corpus is solved one request at a time, so bounded load never
	// spills and every digest lands on its home shard.
	type entry struct {
		model, key string
		objective  float64
	}
	var corpus []entry
	victimHomes := 0
	for bound := 2; victimHomes < 3 || len(corpus) < 8; bound++ {
		if bound > 66 {
			t.Fatalf("victim is home to %d of %d digests; placement looks broken", victimHomes, len(corpus))
		}
		model := fleetModel(bound)
		key, err := neos.RequestKey(&neos.SolveRequest{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		out, err := solveVia(front.URL, model)
		if err != nil {
			t.Fatalf("corpus solve: %v", err)
		}
		if out.Status != "optimal" || out.Quality != "" {
			t.Fatalf("corpus solve = %+v, want a full-quality optimum", out)
		}
		corpus = append(corpus, entry{model, key, out.Objective})
		if rt.Ring().Order(key)[0].ID == victim.url {
			victimHomes++
		}
	}

	// Wait until every digest is persisted on both of its owners.
	hasKey := func(owner, key string) bool {
		resp, err := http.Get(owner + "/history/solve/" + key + "?limit=1")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, e := range corpus {
		for _, owner := range rt.Ring().Order(e.key)[:2] {
			for !hasKey(owner.URL, e.key) {
				if time.Now().After(deadline) {
					t.Fatalf("digest %.12s never reached owner %s", e.key, owner.ID)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	// Closed-loop traffic of fresh models. The victim dies the moment the
	// router has a request in flight on it; traffic then runs on until the
	// survivors have answered 50 requests.
	var victimShard *Shard
	for _, s := range rt.Ring().Shards() {
		if s.ID == victim.url {
			victimShard = s
		}
	}
	var (
		killed              atomic.Bool
		okAfterKill, failed atomic.Uint64
		next                atomic.Int64
		wg                  sync.WaitGroup
	)
	next.Store(1000)
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, err := solveVia(front.URL, fleetModel(int(next.Add(1))))
				switch {
				case err != nil:
					failed.Add(1)
					t.Errorf("request failed across the shard kill: %v", err)
				case out.Status != "optimal":
					failed.Add(1)
					t.Errorf("request answered %+v across the shard kill", out)
				case killed.Load():
					okAfterKill.Add(1)
				}
			}
		}()
	}
	deadline = time.Now().Add(20 * time.Second)
	for victimShard.Inflight() == 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if victimShard.Inflight() == 0 {
		close(stop)
		wg.Wait()
		t.Fatal("the router never had a request in flight on the victim")
	}
	victim.kill()
	killed.Store(true)
	for okAfterKill.Load() < 50 && failed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failed.Load() > 0 {
		t.FailNow()
	}
	if okAfterKill.Load() < 50 {
		t.Fatalf("survivors answered %d requests after the kill, want 50", okAfterKill.Load())
	}

	// Replay the corpus over the dead home shard.
	survivorSolves := func() uint64 {
		var n uint64
		for _, s := range survivors {
			m, err := s.admin.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			n += m.Solves.Count
		}
		return n
	}
	before := survivorSolves()
	for _, e := range corpus {
		out, err := solveVia(front.URL, e.model)
		if err != nil {
			t.Fatalf("replay of %.12s after the kill: %v", e.key, err)
		}
		if out.Status != "optimal" || out.Objective != e.objective {
			t.Fatalf("replay of %.12s = %+v, want optimal %v", e.key, out, e.objective)
		}
	}
	if n := survivorSolves() - before; n != 0 {
		t.Fatalf("replaying the corpus cost %d survivor solves; the replicas must answer for the dead shard", n)
	}
	m := routerMetrics(t, front.URL)
	if m.Failovers == 0 || victimShard.Healthy() {
		t.Fatalf("router failovers = %d, victim healthy = %v; the kill never reached the router",
			m.Failovers, victimShard.Healthy())
	}
	t.Logf("corpus %d (victim home to %d), %d answered after the kill, %d failovers",
		len(corpus), victimHomes, okAfterKill.Load(), m.Failovers)
}
