package neos

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"hslb/internal/ampl"
	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/experiments"
	"hslb/internal/perf"
)

// freshKey computes a request's key without the memo.
func freshKey(t *testing.T, req *SolveRequest) string {
	t.Helper()
	parsed, err := ampl.Parse(req.Model)
	if err != nil {
		t.Fatal(err)
	}
	return canonicalKey(parsed, req)
}

// memoizedKey keys req twice and returns the second key, which must come
// from the memo: requestKey returns no parse for a memo hit.
func memoizedKey(t *testing.T, req *SolveRequest) string {
	t.Helper()
	first, _, err := requestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	key, parsed, err := requestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != nil {
		t.Fatal("a repeated request was parsed again")
	}
	if key != first {
		t.Fatalf("memoized key %s, first key %s", key, first)
	}
	return key
}

// tableIRequest is the fleet's request for one Table I model: the paper's
// solver setup (SOS branching, 0.01 % gap).
func tableIRequest(t *testing.T, res cesm.Resolution, nodes int, constrained bool, perfs map[cesm.Component]perf.Model) *SolveRequest {
	t.Helper()
	src, err := core.WriteAMPL(core.Spec{
		Resolution:     res,
		Layout:         cesm.Layout1,
		TotalNodes:     nodes,
		Perf:           perfs,
		ConstrainOcean: constrained,
		ConstrainAtm:   constrained && res == cesm.Res1Deg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &SolveRequest{Model: src, BranchSOS: true, RelGap: 1e-4}
}

// TestKeyMemoMatchesFreshKey: over the fleet's Table I models (1°
// unconstrained at 128…2048 nodes, 1/8° at 8192…32768 with the ocean
// constrained and not) and the constrained 1° 128-node model, fitted from
// seeds 1 and 3, the memoized key is the key computed from a fresh parse.
func TestKeyMemoMatchesFreshKey(t *testing.T) {
	type rung struct {
		res         cesm.Resolution
		nodes       int
		constrained bool
	}
	rungs := []rung{{cesm.Res1Deg, 128, true}}
	for _, n := range []int{128, 256, 512, 1024, 2048} {
		rungs = append(rungs, rung{cesm.Res1Deg, n, false})
	}
	for _, n := range []int{8192, 16384, 32768} {
		rungs = append(rungs, rung{cesm.Res8thDeg, n, true}, rung{cesm.Res8thDeg, n, false})
	}
	for _, seed := range []int64{1, 3} {
		fits := map[cesm.Resolution]map[cesm.Component]perf.Model{}
		for _, res := range []cesm.Resolution{cesm.Res1Deg, cesm.Res8thDeg} {
			m, err := experiments.FitModels(res, seed)
			if err != nil {
				t.Fatal(err)
			}
			fits[res] = m
		}
		for _, r := range rungs {
			req := tableIRequest(t, r.res, r.nodes, r.constrained, fits[r.res])
			if got, want := memoizedKey(t, req), freshKey(t, req); got != want {
				t.Errorf("seed %d %v %d constrained=%v: memoized key %s, fresh key %s",
					seed, r.res, r.nodes, r.constrained, got, want)
			}
		}
	}
}

// memoVariants numbers the texts TestKeyMemoReformattingsShareKey makes, so
// a repeated run (-count) never meets a text an earlier run memoized.
var memoVariants atomic.Int64

// TestKeyMemoReformattingsShareKey: two texts of one model share one key
// whichever of them this process keyed first. Each order gets texts no
// earlier request used (a distinct trailing comment), so both orders start
// from memo misses.
func TestKeyMemoReformattingsShareKey(t *testing.T) {
	for i, order := range []string{"original first", "reformatted first"} {
		n := memoVariants.Add(1)
		a := &SolveRequest{Model: fmt.Sprintf("%s\n# key memo variant %d\n", miniModel, n)}
		b := &SolveRequest{Model: fmt.Sprintf("%s\n# key memo variant %d\n", miniModelReformatted, n)}
		if i == 1 {
			a, b = b, a
		}
		for _, req := range []*SolveRequest{a, b} {
			if _, parsed, err := requestKey(req); err != nil || parsed == nil {
				t.Fatalf("%s: the first keying of a new text must parse it (err %v)", order, err)
			}
		}
		if ka, kb := memoizedKey(t, a), memoizedKey(t, b); ka != kb {
			t.Errorf("%s: keys differ: %s vs %s", order, ka, kb)
		}
	}
}

// TestKeyMemoSeparatesOptions: the same text under different solver options
// keys differently once the text is memoized, and each option set keeps its
// own key.
func TestKeyMemoSeparatesOptions(t *testing.T) {
	reqs := []*SolveRequest{
		{Model: miniModel},
		{Model: miniModel, BranchSOS: true},
		{Model: miniModel, MaxNodes: 7},
		{Model: miniModel, RelGap: 1e-3},
	}
	seen := map[string]int{}
	for i, req := range reqs {
		key := memoizedKey(t, req)
		if want := freshKey(t, req); key != want {
			t.Errorf("request %d: memoized key %s, fresh key %s", i, key, want)
		}
		if j, dup := seen[key]; dup {
			t.Errorf("requests %d and %d share key %s", j, i, key)
		}
		seen[key] = i
	}
}

// TestKeyMemoChecksAlgorithmFirst: a text memoized under "oa" is still
// answered "error" under any other algorithm.
func TestKeyMemoChecksAlgorithmFirst(t *testing.T) {
	memoizedKey(t, &SolveRequest{Model: miniModel, Algorithm: "oa"})
	bad := &SolveRequest{Model: miniModel, Algorithm: "nlpbb"}
	if key, err := RequestKey(bad); err == nil {
		t.Fatalf("algorithm nlpbb keyed as %s", key)
	}
	s := newCore(t, Config{MaxConcurrent: 1}, nil)
	resp, err := s.solve(context.Background(), bad, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "error" {
		t.Fatalf("status %q, want error", resp.Status)
	}
}

// TestKeyMemoSkipsParseErrors: a text that fails to parse is never
// memoized, so every request for it is answered with the parse error.
func TestKeyMemoSkipsParseErrors(t *testing.T) {
	req := &SolveRequest{Model: "var x integer >= 1 <= 3; minimize obj: x +;"}
	for i := 0; i < 2; i++ {
		if key, err := RequestKey(req); err == nil {
			t.Fatalf("attempt %d: an unparseable model keyed as %s", i, key)
		}
	}
	if key, ok := keyMemo.Get(memoID(req)); ok {
		t.Fatalf("an unparseable model is memoized as %s", key)
	}
}

// TestKeyMemoHitAllocations: keying a repeated request costs a hash of its
// bytes and a memo lookup, not a parse (about 6 300 allocations for the
// constrained 1° 128-node model).
func TestKeyMemoHitAllocations(t *testing.T) {
	fits, err := experiments.FitModels(cesm.Res1Deg, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := tableIRequest(t, cesm.Res1Deg, 128, true, fits)
	memoizedKey(t, req)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := RequestKey(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("RequestKey on a repeated request allocates %v times, want at most 10", allocs)
	}
}

// TestRequestKeyPinned pins the key's bytes. Persisted solve/<key> entries
// and peers on an earlier build meet this build's requests only if keys
// never change, so a change to the parser, the canonical form or the key's
// framing must leave these literals as they are.
func TestRequestKeyPinned(t *testing.T) {
	truth := map[cesm.Component]perf.Model{}
	for _, c := range cesm.OptimizedComponents {
		truth[c] = cesm.TruthModel(cesm.Res1Deg, c)
	}
	for _, tc := range []struct {
		name string
		req  *SolveRequest
		want string
	}{
		{"miniModel", &SolveRequest{Model: miniModel},
			"0216b3c484bb7eaeec4011895b223eee1056b5e8f3b8de348c8f891b596316b5"},
		{"constrained 1° 128 nodes, ground-truth models", tableIRequest(t, cesm.Res1Deg, 128, true, truth),
			"9dc906f81d61d62674323b2c646686ca48e8b9e92d437bb8c0fb119e3007a3df"},
	} {
		if got := freshKey(t, tc.req); got != tc.want {
			t.Errorf("%s: fresh key %s, want %s", tc.name, got, tc.want)
		}
		if got := memoizedKey(t, tc.req); got != tc.want {
			t.Errorf("%s: memoized key %s, want %s", tc.name, got, tc.want)
		}
	}
}
