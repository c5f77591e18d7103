package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hslb/internal/neos"
)

// post sends one /solve request to base and reads the decision out of the
// reply. The latency is what the caller waited: request written, reply read
// and decoded.
func (f *fleet) post(ctx context.Context, base string, in *instance) answer {
	t0 := time.Now()
	a := f.roundTrip(ctx, base, in)
	a.latencyMS = time.Since(t0).Seconds() * 1e3
	return a
}

func (f *fleet) roundTrip(ctx context.Context, base string, in *instance) answer {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/solve", bytes.NewReader(in.body))
	if err != nil {
		return answer{err: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.http.Do(req)
	if err != nil {
		return answer{err: err.Error()}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{err: err.Error()}
	}
	if resp.StatusCode != http.StatusOK {
		return answer{err: fmt.Sprintf("HTTP %d: %.120s", resp.StatusCode, payload)}
	}
	var out neos.SolveResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		return answer{err: "undecodable reply: " + err.Error()}
	}
	if out.Status != "optimal" || out.Quality != "" {
		return answer{err: fmt.Sprintf("status %q quality %q %s", out.Status, out.Quality, out.Error)}
	}
	alloc, err := allocFromVariables(out.Variables)
	if err != nil {
		return answer{err: err.Error()}
	}
	return answer{reported: out.Objective, alloc: alloc, nodes: out.Nodes}
}

// closedLoop runs the operations in order over the fleet with `clients`
// callers, each sending its next request only after the previous one
// completed. Hits and cold requests go through the router; a warm request
// goes straight to the one shard that does not hold its key.
func (f *fleet) closedLoop(ctx context.Context, tr *tracer, ops []op) ([]answer, time.Duration) {
	answers := make([]answer, len(ops))
	done := make([]chan struct{}, len(ops))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := ops[i]
				if o.after >= 0 {
					// Operations are taken in order, so the earlier request
					// is in flight or finished: this cannot deadlock.
					<-done[o.after]
				}
				if ctx.Err() != nil {
					answers[i].err = "not started before the run's time limit"
				} else {
					base := f.routerURL
					if o.class == classWarm {
						base = f.nonOwner(o.inst.key)
					}
					s := tr.start("client."+o.class, o.inst.rung.name, i+1, 0)
					answers[i] = f.post(ctx, base, o.inst)
					tr.end(s, nil)
				}
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return answers, time.Since(t0)
}

// presolve sends every instance once through the router, so that the keys
// are cached at their home shard, persisted, and replicated, and then a few
// more times, so that the timed section starts on open connections and warm
// caches: the first thousand hits of a run were otherwise a sixth slower.
func (f *fleet) presolve(ctx context.Context, insts []*instance) error {
	const warmUps = 8
	once := make([]op, len(insts))
	for i, in := range insts {
		once[i] = op{class: classCold, inst: in, after: -1}
	}
	answers, _ := f.closedLoop(ctx, nil, once)
	for i, a := range answers {
		if a.err != "" {
			return fmt.Errorf("pre-solve of %s (fit seed %d): %s", insts[i].rung.name, insts[i].fitSeed, a.err)
		}
	}
	f.settle()
	for i := 0; i < warmUps; i++ {
		f.closedLoop(ctx, nil, once)
	}
	return nil
}

// hitSequence draws n requests uniformly over the pool.
func hitSequence(seed int64, pool []*instance, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{class: classHit, inst: pool[rng.Intn(len(pool))], after: -1}
	}
	return ops
}

// coldSequence asks every instance once, in a seeded order, so that a heavy
// rung does not always meet the same neighbours.
func coldSequence(seed int64, insts []*instance) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, len(insts))
	for i, j := range rng.Perm(len(insts)) {
		ops[i] = op{class: classCold, inst: insts[j], after: -1}
	}
	return ops
}

// directVersusRouted sends the same hits alternately straight to their home
// shard and through the router, and returns both latency samples; the
// router's hop is the difference of their medians.
func (f *fleet) directVersusRouted(ctx context.Context, pool []*instance, n int) (direct, routed []float64) {
	for i := 0; i < n; i++ {
		in := pool[i%len(pool)]
		if a := f.post(ctx, f.home(in.key), in); a.err == "" {
			direct = append(direct, a.latencyMS)
		}
		if a := f.post(ctx, f.routerURL, in); a.err == "" {
			routed = append(routed, a.latencyMS)
		}
	}
	return direct, routed
}
