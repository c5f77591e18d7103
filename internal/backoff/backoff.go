// Package backoff is the one retry schedule shared by every retry loop in
// the module: a capped exponential delay and a context-aware sleep.
//
// Callers that receive a server's Retry-After hint apply it as a floor on
// a single sleep — max(Delay(…), hint) — and never feed it back into the
// attempt counter, so a hint cannot inflate any later delay.
package backoff

import (
	"context"
	"time"
)

// Delay returns base·2^attempt capped at max. It saturates at max instead
// of overflowing, whatever the attempt; a negative attempt counts as 0.
func Delay(base, max time.Duration, attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	if base > max>>uint(attempt) {
		return max
	}
	return base << uint(attempt)
}

// Sleep waits d, returning nil, or until ctx is done, returning ctx.Err().
// A non-positive d returns at once with ctx.Err().
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
