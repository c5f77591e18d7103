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
)

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
	var lastErr error
	for attempt := 0; attempt < rp.MaxAttempts; attempt++ {
		if attempt > 0 {
			// A shedding server's Retry-After hint floors this one delay:
			// the server knows its queue better than our exponential
			// schedule, and retrying earlier than asked just feeds the
			// overload. The hint deliberately overrides MaxBackoff — a
			// server asking for 10s means 10s.
			d := max(backoff.Delay(rp.BaseBackoff, rp.MaxBackoff, attempt-1), retryAfterHint(lastErr))
			if err := backoff.Sleep(ctx, d); err != nil {
				return nil, err
			}
		}
		hreq, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.httpClient().Do(hreq)
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
		if err := backoff.Sleep(ctx, wait); err != nil {
			return nil, err
		}
	}
}
