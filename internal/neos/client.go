package neos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hslb/internal/backoff"
	"hslb/internal/clock"
)

// Client talks to a Server over HTTP, retrying transport failures and 5xx
// responses under Retry (see RetryPolicy; 4xx responses are never
// retried and surface as *ServerError with the server's message).
type Client struct {
	BaseURL string
	HTTP    *http.Client
	Retry   RetryPolicy
	// clock times retry and poll waits (nil = clock.Wall).
	clock clock.Clock
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
	var out JobResult
	if err := c.get(ctx, fmt.Sprintf("/result?id=%d", id), &out); err != nil {
		// The server reports failed jobs with 422 but still ships the
		// JobResult body; recover it from the captured error body.
		var se *ServerError
		if errors.As(err, &se) && se.StatusCode == http.StatusUnprocessableEntity {
			if jerr := json.Unmarshal(se.Body, &out); jerr == nil && out.Status != "" {
				return &out, nil
			}
		}
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the server's instrumentation snapshot.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	var out Metrics
	if err := c.get(ctx, "/metrics", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// get sends GET {BaseURL}{path} under the retry policy and decodes the
// success response into out.
func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	})
	if err != nil {
		return err
	}
	return decodeBody(resp, out)
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

// Client-side resilience: NEOS-style services sit on the far side of a
// network, so the client retries transport failures and 5xx responses with
// capped exponential backoff. 4xx responses are never retried — a bad
// model stays bad no matter how often it is resent.

// Client retry defaults.
const (
	DefaultClientAttempts = 3
	DefaultClientBackoff  = 100 * time.Millisecond
	DefaultClientMaxWait  = 2 * time.Second
)

// RetryPolicy configures client-side retry and the Wait polling cadence.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request (default 3).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry, doubling per
	// attempt (default 100ms). Wait also uses it as the initial poll
	// interval.
	BaseBackoff time.Duration
	// MaxBackoff caps the delay (default 2s).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultClientAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultClientBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultClientMaxWait
	}
	return p
}

// ServerError is a non-2xx response, carrying the decoded server message
// instead of discarding the body.
type ServerError struct {
	StatusCode int
	// Message is the server's error text: the "error" field when the body
	// is JSON, the trimmed plain text otherwise.
	Message string
	// Body is the raw (size-limited) response body.
	Body []byte
	// RetryAfter is the server's backoff hint (429/503 responses): the
	// retry_after_ms body field when present, else the Retry-After header,
	// else zero. Callers should wait at least this long before retrying.
	RetryAfter time.Duration
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("neos: server returned HTTP %d: %s", e.StatusCode, e.Message)
}

// Retryable reports whether resending the request could help: true only
// for 5xx server-side failures.
func (e *ServerError) Retryable() bool { return e.StatusCode >= 500 }

// maxErrorBody bounds how much of an error response is read into memory.
const maxErrorBody = 64 << 10

// readServerError drains and closes the response body and decodes the
// server's message out of it.
func readServerError(resp *http.Response) *ServerError {
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	_, _ = io.Copy(io.Discard, resp.Body) // drain past the limit for connection reuse
	msg := strings.TrimSpace(string(b))
	var je struct {
		Error        string `json:"error"`
		RetryAfterMs int64  `json:"retry_after_ms"`
	}
	if json.Unmarshal(b, &je) == nil && je.Error != "" {
		msg = je.Error
	}
	if msg == "" {
		msg = http.StatusText(resp.StatusCode)
	}
	se := &ServerError{StatusCode: resp.StatusCode, Message: msg, Body: b}
	if je.RetryAfterMs > 0 {
		se.RetryAfter = time.Duration(je.RetryAfterMs) * time.Millisecond
	} else if h := resp.Header.Get("Retry-After"); h != "" {
		if secs, err := strconv.Atoi(h); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// decodeBody decodes a success response and leaves the connection clean.
func decodeBody(resp *http.Response, out interface{}) error {
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	return json.NewDecoder(resp.Body).Decode(out)
}

// doRetry sends a request built by build (a fresh request per attempt, so
// bodies can be resent), retrying transport errors and retryable server
// errors under the client's policy. On success the caller owns the
// response body; on failure the last error is returned, wrapped with the
// attempt count when retries were exhausted.
func (c *Client) doRetry(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	rp := c.Retry.withDefaults()
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	var lastErr error
	for attempt := 0; attempt < rp.MaxAttempts; attempt++ {
		if attempt > 0 {
			// A shedding server's Retry-After hint floors this one delay:
			// the server knows its queue better than our exponential
			// schedule, and retrying earlier than asked just feeds the
			// overload. The hint deliberately overrides MaxBackoff — a
			// server asking for 10s means 10s.
			d := max(backoff.Delay(rp.BaseBackoff, rp.MaxBackoff, attempt-1), retryAfterHint(lastErr))
			if err := clock.Or(c.clock).Sleep(ctx, d); err != nil {
				return nil, err
			}
		}
		hreq, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(hreq)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr = err // transport failure: retry
			continue
		}
		if resp.StatusCode >= 300 {
			serr := readServerError(resp)
			if !serr.Retryable() {
				return nil, serr
			}
			lastErr = serr
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("neos: giving up after %d attempts: %w", rp.MaxAttempts, lastErr)
}

// retryAfterHint extracts the backoff hint from the previous attempt's
// error, zero when there is none.
func retryAfterHint(err error) time.Duration {
	var se *ServerError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// Wait polls a submitted job until it reaches a terminal state (done or
// failed), backing off between polls from BaseBackoff up to MaxBackoff.
// A shedding server (429, or a retried-out 503) does not abort the wait —
// the job is still queued server-side — it keeps polling with the server's
// Retry-After hint as the poll-delay floor, mirroring Worker, so a
// browning-out server is not hammered by its own waiters. Any other error
// is terminal. The context bounds the total wait.
func (c *Client) Wait(ctx context.Context, id int64) (*JobResult, error) {
	rp := c.Retry.withDefaults()
	for poll := 0; ; poll++ {
		jr, err := c.Result(ctx, id)
		var shed *ServerError
		if err != nil {
			if !errors.As(err, &shed) ||
				(shed.StatusCode != http.StatusTooManyRequests && shed.StatusCode != http.StatusServiceUnavailable) {
				return nil, err
			}
		} else if jr.Status == JobDone || jr.Status == JobFailed {
			return jr, nil
		}
		wait := max(backoff.Delay(rp.BaseBackoff, rp.MaxBackoff, poll), retryAfterHint(err))
		if err := clock.Or(c.clock).Sleep(ctx, wait); err != nil {
			return nil, err
		}
	}
}

// Client bindings for the pull-worker protocol (see work.go). They ride on
// the same retry machinery as the solve client: transport failures and 5xx
// retry with backoff, 4xx surface immediately — except 409, which is mapped
// to ErrLeaseLost so workers can branch on it without picking apart
// *ServerError.

// mapLeaseErr converts 409 ServerErrors to ErrLeaseLost (wrapping the
// original, so callers can still inspect it) and passes others through.
func mapLeaseErr(err error) error {
	var se *ServerError
	if errors.As(err, &se) && se.StatusCode == http.StatusConflict {
		return fmt.Errorf("%w: %s", ErrLeaseLost, se.Message)
	}
	return err
}

// LeaseWork claims the oldest runnable job for workerID. ttl <= 0 takes the
// server default; the grant's TTL is authoritative. With no work available
// it returns (nil, wait, nil) where wait is the server's polling hint. An
// overloaded or draining server surfaces as *ServerError (429/503) carrying
// a RetryAfter hint.
func (c *Client) LeaseWork(ctx context.Context, workerID string, ttl time.Duration) (*WorkGrant, time.Duration, error) {
	body := WorkLeaseRequest{WorkerID: workerID, TTLMs: ttl.Milliseconds()}
	resp, err := c.postRaw(ctx, "/work/lease", body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode == http.StatusNoContent {
		wait := time.Second
		if h := resp.Header.Get("X-Wait-Ms"); h != "" {
			if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
				wait = time.Duration(ms) * time.Millisecond
			}
		}
		_ = decodeBody(resp, &struct{}{}) // drain + close
		return nil, wait, nil
	}
	var grant WorkGrant
	if err := decodeBody(resp, &grant); err != nil {
		return nil, 0, err
	}
	return &grant, 0, nil
}

// RenewWork extends the lease on a held job. It returns the granted TTL, or
// ErrLeaseLost when the token went stale — the heartbeat's signal to cancel
// the solve.
func (c *Client) RenewWork(ctx context.Context, jobID, fence int64, ttl time.Duration) (time.Duration, error) {
	var out WorkRenewResponse
	err := c.post(ctx, "/work/renew", WorkRenewRequest{JobID: jobID, Fence: fence, TTLMs: ttl.Milliseconds()}, &out)
	if err != nil {
		return 0, mapLeaseErr(err)
	}
	return time.Duration(out.TTLMs) * time.Millisecond, nil
}

// CompleteWork reports a finished solve. duplicate is true when the server
// had already recorded a byte-identical result (a replayed report after a
// worker restart) and absorbed this one as a no-op. A conflicting result
// under a stale token returns ErrLeaseLost.
func (c *Client) CompleteWork(ctx context.Context, jobID, fence int64, result *SolveResponse) (duplicate bool, err error) {
	var out WorkCompleteResponse
	err = c.post(ctx, "/work/complete", WorkCompleteRequest{JobID: jobID, Fence: fence, Result: result}, &out)
	if err != nil {
		return false, mapLeaseErr(err)
	}
	return out.Duplicate, nil
}

// FailWork reports a failed attempt: retryable requeues the job with
// backoff, otherwise it fails permanently.
func (c *Client) FailWork(ctx context.Context, jobID, fence int64, errMsg string, retryable bool) error {
	return mapLeaseErr(c.post(ctx, "/work/fail",
		WorkFailRequest{JobID: jobID, Fence: fence, Error: errMsg, Retryable: retryable}, &struct{}{}))
}

// ReleaseWork hands a held job back to the queue without consuming its
// attempt — the drain path of a worker shutting down before the solve
// started producing anything worth finishing.
func (c *Client) ReleaseWork(ctx context.Context, jobID, fence int64) error {
	return mapLeaseErr(c.post(ctx, "/work/fail",
		WorkFailRequest{JobID: jobID, Fence: fence, Release: true}, &struct{}{}))
}
