// Package neos implements a small optimization service and its client,
// reproducing the deployment shape of the paper's automated pipeline: "The
// AMPL code in HSLB is executed remotely via Python script on NEOS server
// hosted by ANL" (§V). Models are submitted as AMPL text (parsed by
// internal/ampl) and answered by core.SolveModel, the library's one solve
// decision: a Table I model whose spec the exact search answers in the
// library gets that answer here too, and every other model the MINLP
// branch-and-bound.
//
// The *Server is a transport-free solve core: the one solve ladder, the
// five lease methods of the pull-worker protocol (work.go), the workers and
// the background loops, with admission's slots as the solver slots. Only
// http.go, the one HTTP adapter (routes, body reader, error-to-status
// mapping, shard-to-shard transfer), and client.go import net/http. The
// routes, matching NEOS:
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
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"

	"hslb/internal/ampl"
	"hslb/internal/core"
	"hslb/internal/minlp"
	"hslb/internal/solvecache"
)

// SolveRequest is the JSON body of /solve and /submit.
type SolveRequest struct {
	// Model is AMPL source text.
	Model string `json:"model"`
	// Algorithm is "oa" (the default and only value): LP/NLP-based
	// branch-and-bound, or the exact search for a nonconvex Table I model
	// (core.SolveModel). Any other value is answered with status "error".
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

// keyMemoCapacity bounds the request-key memo: 4096 keys of 64 hex bytes
// under 32-byte ids, about 1 MB with the LRU's bookkeeping.
const keyMemoCapacity = 4096

// keyMemo maps a request's memo id (memoID) to its canonical key, so a
// process parses and canonicalizes each distinct body once: a repeated
// request — a cache hit at the shard, a placement at the router — costs a
// SHA-256 over its bytes and an LRU lookup. The key is a pure function of
// the request, so the memo is per process and needs no invalidation; only
// successful keys enter it.
var keyMemo = solvecache.New[string](keyMemoCapacity)

// memoID identifies a request by its exact bytes: SHA-256 over the
// length-prefixed model text and the key's solver options, so two requests
// share an id only when they share every input of the canonical key. The
// algorithm is left out: requestKey checks it before the lookup, and every
// accepted value keys alike.
func memoID(req *SolveRequest) string {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(len(req.Model)))
	h.Write(buf[:])
	io.WriteString(h, req.Model)
	var opts [17]byte
	if req.BranchSOS {
		opts[0] = 1
	}
	binary.BigEndian.PutUint64(opts[1:9], uint64(req.MaxNodes))
	binary.BigEndian.PutUint64(opts[9:], math.Float64bits(req.RelGap))
	h.Write(opts[:])
	var sum [sha256.Size]byte
	return string(h.Sum(sum[:0]))
}

// requestKey fingerprints a request: SHA-256 over the canonical form of
// the model (whitespace/comment/ordering-insensitive, via the AMPL AST)
// plus the solver options. The key comes from keyMemo when this process has
// keyed the same bytes before, and the parse is then nil: only a request
// that is solved needs it, and Server.solve parses in the flight leader.
// Otherwise the parse is returned, so the caller solves without re-parsing.
func requestKey(req *SolveRequest) (string, *ampl.Result, error) {
	if err := checkAlgorithm(req); err != nil {
		return "", nil, err
	}
	id := memoID(req)
	if key, ok := keyMemo.Get(id); ok {
		return key, nil, nil
	}
	parsed, err := ampl.Parse(req.Model)
	if err != nil {
		return "", nil, err
	}
	key := canonicalKey(parsed, req)
	keyMemo.Put(id, key)
	return key, parsed, nil
}

// canonicalKey is the key itself: SHA-256 over the parse's canonical form
// and the solver options, hex-encoded.
func canonicalKey(parsed *ampl.Result, req *SolveRequest) string {
	h := sha256.New()
	io.WriteString(h, parsed.CanonicalForm())
	fmt.Fprintf(h, "|alg=oa|sos=%t|nodes=%d|gap=%g", req.BranchSOS, req.MaxNodes, req.RelGap)
	return hex.EncodeToString(h.Sum(nil))
}

// RequestKey returns the content-addressed fingerprint of a solve request:
// the solve-cache key, the persisted-result key suffix, and the digest the
// shard router consistent-hashes on — one identity for one model, at every
// tier of the fleet. It is memoized per process (see keyMemo).
func RequestKey(req *SolveRequest) (string, error) {
	key, _, err := requestKey(req)
	return key, err
}

// KeyMemoStats snapshots the request-key memo's counters, the key_memo
// field of the shard's and the router's /metrics. The memo is per process,
// so a router and shards sharing one process share these counters.
func KeyMemoStats() solvecache.Stats {
	return keyMemo.Stats()
}

// checkAlgorithm refuses any algorithm but the solver's own.
func checkAlgorithm(req *SolveRequest) error {
	if req.Algorithm != "" && req.Algorithm != "oa" {
		return fmt.Errorf("unknown algorithm %q: the solver is \"oa\", LP/NLP-based branch-and-bound", req.Algorithm)
	}
	return nil
}

// parseRequest checks the request's algorithm and parses its model.
func parseRequest(req *SolveRequest) (*ampl.Result, error) {
	if err := checkAlgorithm(req); err != nil {
		return nil, err
	}
	return ampl.Parse(req.Model)
}

// solveParsedContext answers an already-parsed request through
// core.SolveModel; when ctx carries a deadline the solver stops there and
// reports status "deadline" with its best incumbent, if it has one.
func solveParsedContext(ctx context.Context, parsed *ampl.Result, req *SolveRequest) *SolveResponse {
	opt := minlp.Options{
		BranchSOS: req.BranchSOS,
		MaxNodes:  req.MaxNodes,
		RelGap:    req.RelGap,
	}
	res, err := core.SolveModel(ctx, parsed, opt)
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
