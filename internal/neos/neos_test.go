package neos

import (
	"context"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

const miniModel = `
param N := 30;
var T >= 0 <= 10000;
var n1 integer >= 1 <= 30;
var n2 integer >= 1 <= 30;
minimize total: T;
subject to t1: 100 / n1 + 5 <= T;
subject to t2: 80 / n2 + 3 <= T;
subject to cap: n1 + n2 <= N;
`

func TestHealth(t *testing.T) {
	_, srv, _ := newServerWith(t, Config{MaxConcurrent: 2})
	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %d", resp.StatusCode)
	}
}

func TestSynchronousSolve(t *testing.T) {
	_, _, c := newServerWith(t, Config{MaxConcurrent: 2})
	res, err := c.Solve(context.Background(), &SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "optimal" {
		t.Fatalf("status = %q (err %q)", res.Status, res.Error)
	}
	if res.Objective <= 0 || math.IsNaN(res.Objective) {
		t.Fatalf("objective = %v", res.Objective)
	}
	n1, ok1 := res.Variables["n1"]
	n2, ok2 := res.Variables["n2"]
	if !ok1 || !ok2 {
		t.Fatalf("variables missing: %v", res.Variables)
	}
	if n1+n2 > 30 {
		t.Fatalf("capacity violated: %v + %v", n1, n2)
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	_, _, c := newServerWith(t, Config{MaxConcurrent: 2})
	ctx := context.Background()
	id, err := c.Submit(ctx, &SolveRequest{Model: miniModel})
	if err != nil {
		t.Fatal(err)
	}
	if id <= 0 {
		t.Fatalf("id = %d", id)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, err := c.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Status == JobDone {
			if jr.Result == nil || jr.Result.Status != "optimal" {
				t.Fatalf("job result: %+v", jr.Result)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %v", id, jr.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBadRequests(t *testing.T) {
	_, srv, c := newServerWith(t, Config{MaxConcurrent: 2})

	// Empty model.
	if _, err := c.Solve(context.Background(), &SolveRequest{}); err == nil {
		t.Error("empty model accepted")
	}
	// GET on /solve.
	resp, err := http.Get(srv.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve = %d", resp.StatusCode)
	}
	// Malformed JSON.
	resp2, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON = %d", resp2.StatusCode)
	}
	// Unknown job.
	if _, err := c.Result(context.Background(), 999); err == nil {
		t.Error("unknown job accepted")
	}
	// Bad id.
	resp3, err := http.Get(srv.URL + "/result?id=xyz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id = %d", resp3.StatusCode)
	}
}

func TestParseErrorSurfaced(t *testing.T) {
	_, _, c := newServerWith(t, Config{MaxConcurrent: 2})
	res, err := c.Solve(context.Background(), &SolveRequest{Model: "var x nonsense;"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "error" || res.Error == "" {
		t.Fatalf("parse error not surfaced: %+v", res)
	}
}

// TestUnknownAlgorithm: "oa" is the one solver. Any other value, the
// removed "nlpbb" included, is a request error that names it, answered
// before the solver runs.
func TestUnknownAlgorithm(t *testing.T) {
	s, _, c := newServerWith(t, Config{MaxConcurrent: 2})
	for _, alg := range []string{"simplexx", "nlpbb"} {
		res, err := c.Solve(context.Background(), &SolveRequest{Model: miniModel, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != "error" || !strings.Contains(res.Error, `"oa"`) {
			t.Fatalf("%s: unknown algorithm accepted or unexplained: %+v", alg, res)
		}
	}
	if m := s.metrics(); m.Solves.Count != 0 {
		t.Fatalf("solver ran %d times for requests it cannot answer", m.Solves.Count)
	}
}

func TestInfeasibleModelReported(t *testing.T) {
	_, _, c := newServerWith(t, Config{MaxConcurrent: 2})
	res, err := c.Solve(context.Background(), &SolveRequest{Model: `
var n integer >= 1 <= 10;
minimize o: n;
s.t. c: 100 / n <= 1;
`})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "infeasible" {
		t.Fatalf("status = %q, want infeasible", res.Status)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	_, _, c := newServerWith(t, Config{MaxConcurrent: 2})
	ctx := context.Background()
	ids := make([]int64, 6)
	for i := range ids {
		id, err := c.Submit(ctx, &SolveRequest{Model: miniModel})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			jr, err := c.Result(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if jr.Status == JobDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never finished", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
