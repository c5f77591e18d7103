package neos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosOverload4x is the overload acceptance scenario: a fixed-seed
// request mix (easy models, pathological models, invalid requests, async
// submissions, tight client deadlines) offered at 4× the server's solver
// capacity. Every request must reach exactly one terminal outcome — a
// full-quality answer, a degraded brownout answer, an accepted job, a 429
// with Retry-After, or a 400 — and the server must come back to its
// baseline goroutine count afterwards: no leaks, no hung queue entries.
// Run under -race by `make race`/`make verify`.
func TestChaosOverload4x(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s, hs, _ := newServerWith(t, Config{
		MaxConcurrent:  2,
		SolveTimeout:   300 * time.Millisecond,
		JobTimeout:     2 * time.Second,
		MaxPendingJobs: 3,
		Overload: OverloadConfig{
			MaxQueue:         2,
			BreakerThreshold: 3,
			BreakerCooldown:  300 * time.Millisecond,
			DegradedTimeout:  50 * time.Millisecond,
		},
	})

	const workers = 8 // 4× the 2 solver slots
	const perWorker = 10
	client := &http.Client{Timeout: 30 * time.Second}

	var full, degraded, accepted, shed, badRequest, other atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w))) // fixed seed per worker
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				var (
					path = "/solve"
					body string
					hdr  string
				)
				switch p := rng.Float64(); {
				case p < 0.55:
					body = fmt.Sprintf(`{"model":%q}`, uniqueEasyModel(id))
				case p < 0.70:
					body = fmt.Sprintf(`{"model":%q}`, uniquePathologicalModel(id))
				case p < 0.80:
					path = "/submit"
					body = fmt.Sprintf(`{"model":%q}`, uniqueEasyModel(id))
				case p < 0.90:
					body = `{"model":"   "}` // empty model → 400
				default:
					body = fmt.Sprintf(`{"model":%q}`, uniqueEasyModel(id))
					hdr = "20" // ms — tight but sometimes meetable
				}
				req, err := http.NewRequest(http.MethodPost, hs.URL+path, bytes.NewReader([]byte(body)))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if hdr != "" {
					req.Header.Set("X-Request-Deadline-Ms", hdr)
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("request %d: transport error (no terminal outcome): %v", id, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var out SolveResponse
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						t.Errorf("request %d: bad 200 body: %v", id, err)
					} else if out.Quality == "degraded" {
						degraded.Add(1)
					} else {
						full.Add(1)
					}
				case http.StatusAccepted:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("request %d: 429 without Retry-After", id)
					}
					shed.Add(1)
				case http.StatusBadRequest:
					badRequest.Add(1)
				default:
					other.Add(1)
					t.Errorf("request %d: unexpected status %d", id, resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()

	total := full.Load() + degraded.Load() + accepted.Load() + shed.Load() + badRequest.Load() + other.Load()
	if total != workers*perWorker {
		t.Fatalf("outcomes = %d, want exactly %d (one per request)", total, workers*perWorker)
	}
	if other.Load() != 0 {
		t.Fatalf("%d requests ended in an unclassified outcome", other.Load())
	}
	if full.Load() == 0 {
		t.Fatal("no full-quality answers under overload — goodput collapsed to zero")
	}
	if badRequest.Load() == 0 {
		t.Fatal("fault plan produced no invalid requests; mix is broken")
	}
	t.Logf("outcomes: full=%d degraded=%d accepted=%d shed429=%d bad400=%d",
		full.Load(), degraded.Load(), accepted.Load(), shed.Load(), badRequest.Load())

	// The admission queue must be empty again and nothing may leak: close
	// the server (drains workers; abandoned solves are bounded by
	// SolveTimeout) and wait for the goroutine count to settle.
	if n := s.guard.adm.QueueLen(); n != 0 {
		t.Fatalf("admission queue still holds %d waiters after the storm", n)
	}
	hs.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestOverloadGoodputUnder4xStorm is the overload goodput gate. Closed-loop
// clients measure peak goodput — full-quality answers per second — at
// exactly solver capacity, and storm the protected server at 4× capacity
// with a propagated client deadline of 3× the peak mean latency. The two
// run as short alternating segments on one server, each storm segment
// right after the peak segment that sets its deadline, so that both see
// the same host contention (other test binaries sharing the CPUs); the
// gate compares goodput summed over all segments of each kind. The test
// fails unless the storm keeps at least half the peak goodput and no
// request fails.
func TestOverloadGoodputUnder4xStorm(t *testing.T) {
	const slots, factor, rounds = 2, 4, 4
	_, hs, _ := newServerWith(t, Config{
		MaxConcurrent: slots,
		SolveTimeout:  5 * time.Second,
	})
	var ids atomic.Uint64 // one unique model per request: no cache hits

	// Size the segments in solve times, so that the race detector's
	// slowdown does not shrink them to a handful of answers.
	sent := time.Now()
	if _, err := NewClient(hs.URL).Solve(context.Background(), &SolveRequest{Model: goodputModel(ids.Add(1))}); err != nil {
		t.Fatal(err)
	}
	segment := max(300*time.Millisecond, 3*time.Since(sent))

	var peak, storm goodputPhase
	for r := 0; r < rounds; r++ {
		p := runGoodputPhase(hs.URL, slots, segment, 0, &ids)
		budget := min(max(3*p.meanLatency(), 80*time.Millisecond), 2*time.Second)
		s := runGoodputPhase(hs.URL, factor*slots, 3*segment/2, budget, &ids)
		t.Logf("round %d: client deadline %v (3x peak mean latency %v)\n  peak:  %v\n  storm: %v",
			r, budget, p.meanLatency().Round(time.Millisecond), p, s)
		peak.add(p)
		storm.add(s)
	}
	if peak.full == 0 {
		t.Fatal("peak segments produced no full-quality answers; cannot calibrate")
	}
	t.Logf("peak, protected, at capacity: %v", peak)
	t.Logf("%dx storm, protected:          %v", factor, storm)
	if storm.errors > 0 {
		t.Errorf("%d storm requests failed: transport error, unexpected status or solver error", storm.errors)
	}
	if frac := storm.goodput() / peak.goodput(); frac < 0.5 {
		t.Fatalf("protected goodput under %dx overload is %.0f%% of peak, need >= 50%%", factor, 100*frac)
	}
}

// goodputModel is a near-tie 8-component load-balancing model whose
// branch-and-bound takes tens of milliseconds: long enough that queueing is
// real, short enough that a phase sees dozens of answers. id only moves the
// right-hand side of a constraint that never binds, so every request is a
// distinct cache key yet costs the solver the same tree.
func goodputModel(id uint64) string {
	const k, n = 8, 2000
	var b strings.Builder
	fmt.Fprintf(&b, "var T >= 0 <= 100000;\n")
	names := make([]string, k)
	for j := 1; j <= k; j++ {
		names[j-1] = fmt.Sprintf("n%d", j)
		fmt.Fprintf(&b, "var n%d integer >= 1 <= %d;\n", j, n)
	}
	b.WriteString("minimize total: T;\n")
	for j := 1; j <= k; j++ {
		fmt.Fprintf(&b, "subject to t%d: %0.6f / n%d + %0.6f <= T;\n",
			j, float64(n)*1.375+float64(j)*0.001+0.0002, j, float64(j)*1e-6)
	}
	fmt.Fprintf(&b, "subject to cap: %s <= %d;\n", strings.Join(names, " + "), n)
	fmt.Fprintf(&b, "subject to tag: T >= -%d;\n", id)
	return b.String()
}

// goodputPhase tallies one closed-loop phase by outcome.
type goodputPhase struct {
	clients                            int
	elapsed                            time.Duration
	full, degraded, late, shed, errors uint64
	fullLatency                        time.Duration // summed over full answers
}

func (p goodputPhase) goodput() float64 { return float64(p.full) / p.elapsed.Seconds() }

// add sums segment q into p.
func (p *goodputPhase) add(q goodputPhase) {
	p.clients = q.clients
	p.elapsed += q.elapsed
	p.full += q.full
	p.degraded += q.degraded
	p.late += q.late
	p.shed += q.shed
	p.errors += q.errors
	p.fullLatency += q.fullLatency
}

func (p goodputPhase) meanLatency() time.Duration {
	if p.full == 0 {
		return 0
	}
	return p.fullLatency / time.Duration(p.full)
}

func (p goodputPhase) String() string {
	return fmt.Sprintf("%d clients, %.1fs: goodput %.1f/s (full=%d degraded=%d late=%d shed429=%d err=%d, mean full latency %v)",
		p.clients, p.elapsed.Seconds(), p.goodput(), p.full, p.degraded, p.late, p.shed, p.errors,
		p.meanLatency().Round(time.Millisecond))
}

// runGoodputPhase drives clients closed-loop workers against url's /solve
// for dur, each sending one request at a time with budget (if non-zero) as
// the propagated deadline. A shed worker honors retry_after_ms, capped at
// one second and at the end of the phase, before its next request. Goodput
// counts only full-quality answers: a 200 that is neither degraded nor past
// its deadline.
func runGoodputPhase(url string, clients int, dur, budget time.Duration, ids *atomic.Uint64) goodputPhase {
	p := goodputPhase{clients: clients}
	var mu sync.Mutex
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				body, _ := json.Marshal(SolveRequest{Model: goodputModel(ids.Add(1))})
				req, _ := http.NewRequest(http.MethodPost, url+"/solve", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				if budget > 0 {
					req.Header.Set("X-Request-Deadline-Ms", fmt.Sprint(budget.Milliseconds()))
				}
				sent := time.Now()
				resp, err := client.Do(req)
				var out struct {
					SolveResponse
					RetryAfterMs int64 `json:"retry_after_ms"`
				}
				code := 0
				if err == nil {
					code = resp.StatusCode
					if json.NewDecoder(resp.Body).Decode(&out) != nil {
						code = 0
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				lat := time.Since(sent)
				mu.Lock()
				switch {
				case code == http.StatusOK && out.Quality == "degraded":
					p.degraded++
				case code == http.StatusOK && out.Status == "deadline":
					p.late++
				case code == http.StatusOK && out.Status != "error":
					p.full++
					p.fullLatency += lat
				case code == http.StatusTooManyRequests:
					p.shed++
				default:
					p.errors++
				}
				mu.Unlock()
				if code == http.StatusTooManyRequests && out.RetryAfterMs > 0 {
					time.Sleep(min(time.Duration(out.RetryAfterMs)*time.Millisecond, time.Second, time.Until(end)))
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}
