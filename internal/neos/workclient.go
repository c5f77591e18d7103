package neos

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Client bindings for the pull-worker protocol (see work.go). They ride on
// the same retry machinery as the solve client: transport failures and 5xx
// retry with backoff, 4xx surface immediately — except 409, which is mapped
// to ErrLeaseLost so workers can branch on it without picking apart
// *ServerError.

// ErrLeaseLost is returned by the work-protocol bindings when the server
// rejected the fencing token (HTTP 409): the lease expired or the job was
// handed to another worker. The correct response is to stop computing and
// lease fresh work — any result already computed will never be recorded.
var ErrLeaseLost = errors.New("neos: lease lost (stale fencing token)")

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
