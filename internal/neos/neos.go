// Package neos implements a small HTTP optimization service and client,
// reproducing the deployment shape of the paper's automated pipeline: "The
// AMPL code in HSLB is executed remotely via Python script on NEOS server
// hosted by ANL" (§V). Models are submitted as AMPL text (parsed by
// internal/ampl) and solved with the MINLP branch-and-bound solvers.
//
// Two interaction styles are offered, matching NEOS:
//
//	POST /solve          — synchronous solve, result in the response
//	POST /submit         — enqueue a durable job, returns {"id": ...}
//	GET  /result?id=...  — poll a submitted job
//	GET  /jobs           — list jobs (optional ?status= filter)
//	GET  /metrics        — cache/queue/latency/overload instrumentation
//	GET  /health         — liveness probe (200 while the process is up)
//	GET  /ready          — readiness probe (503 when draining, saturated,
//	                       or the solver circuit breaker is open)
//
// The server de-duplicates work through a content-addressed solve cache
// (internal/solvecache) keyed on the canonical form of the AMPL model, and
// persists its job queue in a write-ahead log (internal/jobstore) so queued
// work survives restarts.
package neos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"

	"hslb/internal/ampl"
	"hslb/internal/minlp"
)

// SolveRequest is the JSON body of /solve and /submit.
type SolveRequest struct {
	// Model is AMPL source text.
	Model string `json:"model"`
	// Algorithm is "oa" (the default and only value): LP/NLP-based
	// branch-and-bound. Any other value is answered with status "error".
	Algorithm string `json:"algorithm,omitempty"`
	// BranchSOS enables SOS branching.
	BranchSOS bool `json:"branch_sos,omitempty"`
	// MaxNodes caps the search (0 = solver default).
	MaxNodes int `json:"max_nodes,omitempty"`
	// RelGap is the relative optimality gap (0 = exact).
	RelGap float64 `json:"rel_gap,omitempty"`
	// TimeoutMs is the client's deadline for this request in milliseconds,
	// capped by the server's SolveTimeout (0 = server default). On /solve
	// an X-Request-Deadline-Ms header takes precedence. Deliberately
	// outside the cache key: results that depend on the budget (status
	// "deadline") are never cached.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// SolveResponse is the JSON result of a solve.
type SolveResponse struct {
	Status    string             `json:"status"` // "optimal", "infeasible", ...
	Objective float64            `json:"objective"`
	Variables map[string]float64 `json:"variables,omitempty"`
	Nodes     int                `json:"nodes"`
	Error     string             `json:"error,omitempty"`
	// Quality is "degraded" when the answer came from the brownout rung of
	// the overload ladder — a best-effort rounding incumbent, not a
	// certified optimum — and empty for full-quality answers.
	Quality string `json:"quality,omitempty"`
}

// JobStatus is the lifecycle state of an async job.
type JobStatus string

// Job states.
const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// JobResult is the JSON result of /result.
type JobResult struct {
	ID       int64          `json:"id"`
	Status   JobStatus      `json:"status"`
	Attempts int            `json:"attempts,omitempty"`
	Result   *SolveResponse `json:"result,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// ExecuteRequest parses and solves one request with the same pipeline the
// server's solve paths use: ctx bounds the solve (expiry yields status
// "deadline" with the best incumbent). It exists for fleet nodes
// (cmd/hslbworker) that lease jobs over the work protocol and execute them
// locally; request errors return status "error", never an error value.
// The int argument is ignored: the solver is sequential, and the parameter
// is kept only so existing callers still compile.
func ExecuteRequest(ctx context.Context, req *SolveRequest, _ int) *SolveResponse {
	parsed, err := parseRequest(req)
	if err != nil {
		return &SolveResponse{Status: "error", Error: err.Error()}
	}
	return solveParsedContext(ctx, parsed, req)
}

// parseRequest checks the request's algorithm and parses its model.
func parseRequest(req *SolveRequest) (*ampl.Result, error) {
	if req.Algorithm != "" && req.Algorithm != "oa" {
		return nil, fmt.Errorf("unknown algorithm %q: the solver is \"oa\", LP/NLP-based branch-and-bound", req.Algorithm)
	}
	return ampl.Parse(req.Model)
}

// solveParsedContext optimizes an already-parsed request; when ctx carries a
// deadline the solver stops there and reports status "deadline" with its
// best incumbent.
func solveParsedContext(ctx context.Context, parsed *ampl.Result, req *SolveRequest) *SolveResponse {
	opt := minlp.Options{
		BranchSOS: req.BranchSOS,
		MaxNodes:  req.MaxNodes,
		RelGap:    req.RelGap,
	}
	res, err := minlp.SolveContext(ctx, parsed.Model, opt)
	if err != nil {
		return &SolveResponse{Status: "error", Error: err.Error()}
	}
	out := &SolveResponse{Status: res.Status.String(), Nodes: res.Nodes}
	if res.X != nil {
		out.Objective = res.Obj
		out.Variables = map[string]float64{}
		for name, idx := range parsed.VarIndex {
			out.Variables[name] = round9(res.X[idx])
		}
		for fam, m := range parsed.IndexedVarIndex {
			for elem, idx := range m {
				out.Variables[ampl.IndexedName(fam, elem)] = round9(res.X[idx])
			}
		}
	}
	return out
}

func round9(v float64) float64 {
	return math.Round(v*1e9) / 1e9
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Client talks to a Server over HTTP, retrying transport failures and 5xx
// responses under Retry (see RetryPolicy; 4xx responses are never
// retried and surface as *ServerError with the server's message).
type Client struct {
	BaseURL string
	HTTP    *http.Client
	Retry   RetryPolicy
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTP: http.DefaultClient}
}

// Solve runs a synchronous solve.
func (c *Client) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	var out SolveResponse
	if err := c.post(ctx, "/solve", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Submit enqueues a job and returns its id.
func (c *Client) Submit(ctx context.Context, req *SolveRequest) (int64, error) {
	var out map[string]int64
	if err := c.post(ctx, "/submit", req, &out); err != nil {
		return 0, err
	}
	return out["id"], nil
}

// Result polls a submitted job. Failed jobs are returned with
// Status == JobFailed and a nil error: the HTTP request succeeded, the
// solve did not.
func (c *Client) Result(ctx context.Context, id int64) (*JobResult, error) {
	resp, err := c.get(ctx, fmt.Sprintf("/result?id=%d", id))
	if err != nil {
		// The server reports failed jobs with 422 but still ships the
		// JobResult body; recover it from the captured error body.
		var se *ServerError
		if errors.As(err, &se) && se.StatusCode == http.StatusUnprocessableEntity {
			var out JobResult
			if jerr := json.Unmarshal(se.Body, &out); jerr == nil && out.Status != "" {
				return &out, nil
			}
		}
		return nil, err
	}
	var out JobResult
	if err := decodeBody(resp, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the server's instrumentation snapshot.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	resp, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	var out Metrics
	if err := decodeBody(resp, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// get sends GET {BaseURL}{path} under the retry policy; the caller owns
// the response body.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	return c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	})
}

// post sends body as JSON to path and decodes the success response into
// out.
func (c *Client) post(ctx context.Context, path string, body, out interface{}) error {
	resp, err := c.postRaw(ctx, path, body)
	if err != nil {
		return err
	}
	return decodeBody(resp, out)
}

// postRaw is post without response decoding: the caller owns the response
// and must drain/close it (LeaseWork needs the status code and headers to
// distinguish a grant from a no-work 204).
func (c *Client) postRaw(ctx context.Context, path string, body interface{}) (*http.Response, error) {
	var buf strings.Builder
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return nil, err
	}
	return c.doRetry(ctx, func() (*http.Request, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+path, strings.NewReader(buf.String()))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		return hreq, nil
	})
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}
